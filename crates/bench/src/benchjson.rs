//! The machine-readable benchmark summary: `BENCH_PDE.json`.
//!
//! The `report` binary renders one [`BenchSummary`] per run — per-figure
//! timings with data-flow solver counters, the structured-program
//! scaling sweep, and the tracing-overhead A/B — and [`validate`] checks
//! an emitted document against the schema (the CI smoke job runs it on
//! the artifact it uploads). Everything is built on `pdce-trace`'s
//! dependency-free JSON support, so the output format is fully
//! deterministic modulo the measured times.

use pdce_trace::json::{self, Value};
use pdce_trace::SolverStats;
use std::fmt::Write as _;

/// Schema version stamped into the document; bump on breaking changes.
/// v2: solver stats carry strategy-tagged pops (`fifo_pops` /
/// `priority_pops`), sweep rows gain the FIFO reference run
/// (`pde_solver_fifo`), and the document gains `pops_reduction_pct` —
/// the priority strategy's worklist-pop saving over FIFO on the sweep,
/// which [`validate`] requires to be ≥ 20%.
/// v3: solver stats carry the warm-start counters (`cold_solves` /
/// `warm_solves` / `seeded_pops`), sweep rows gain the
/// incremental-disabled reference run (`pde_solver_noincr`, priority
/// strategy, warm-start seeding off), and the document gains
/// `incremental_pops_reduction_pct` — the pop saving of warm-start
/// seeded re-solving over cold re-solving on the sweep, which
/// [`validate`] requires to be ≥ 40%.
/// v4: the document gains `tv` — the translation-validation overhead
/// A/B (same workload with per-round semantic validation off and on),
/// whose `tv_overhead_pct` [`validate`] requires to stay under 10% —
/// and `resilience`, the fault-tolerance counters of the run
/// (rollbacks, degradations, TV checks/rollbacks, budget exhaustions).
/// v5: the document gains `csr` — the shared-`CfgView` A/B on the
/// scaling-sweep analysis workload (every consumer rebuilding its own
/// adjacency/orders per analysis, the pre-CSR access pattern, versus
/// one revision-memoized CSR view shared through the `AnalysisCache`),
/// whose `csr_walltime_reduction_pct` [`validate`] requires to be
/// ≥ 10%.
/// v6: the document gains `metrics` — the always-on metrics plane of
/// the `pdce-metrics` registry: a recording-on vs recording-off
/// overhead A/B on the scaling-sweep workload (whose
/// `metrics_overhead_pct` [`validate`] requires to stay under 2%), a
/// `snapshot_stable` bit asserting that the deterministic exposition of
/// the registry is byte-identical between `jobs=1` and `jobs=4` runs of
/// the same corpus, and `pass_latency` — per-pass wall-time quantiles
/// (p50/p90/p99/max upper bucket edges of the log₂ histograms).
/// v7: the document gains `serve` — the `pdce serve` daemon section: a
/// cold-vs-warm-cache A/B replay of a small-program corpus through the
/// in-process serving path, sustained warm throughput
/// (`req_per_sec`, which [`validate`] requires ≥
/// [`MIN_SERVE_REQ_PER_SEC`]), p50/p99 request latency (p99 bounded by
/// the `--wall-ms` admission cap of the run), a `warm_identical` bit
/// asserting warm-cache responses were byte-identical to cold ones, and
/// `warm_speedup_pct` (≥ [`MIN_SERVE_WARM_SPEEDUP_PCT`]).
/// v8: solver stats carry the sparse-solver counters (`sparse_pops` /
/// `sparse_edge_visits`) and the document gains `sparse` — the
/// dense-vs-sparse solver A/B on the analysis workload (dead + faint +
/// delayability cold solves under the dense priority worklist versus
/// the def-use-chain sparse solver), whose
/// `sparse_pops_reduction_pct` and `sparse_walltime_reduction_pct`
/// [`validate`] requires to be ≥ 50% (the ≥2× bars) and whose
/// `bit_identical` bit asserts both strategies reached the same
/// fixpoints.
/// v9: the document gains `recovery` — the self-healing serving
/// section: a WAL-off vs WAL-on cold-replay A/B (whose
/// `wal_overhead_pct` [`validate`] requires to stay under
/// [`MAX_WAL_OVERHEAD_PCT`]), plus a simulated-crash drill: the corpus
/// is served with the write-ahead log as the *only* persistence (no
/// clean save), the server is dropped as a crash would leave it, and a
/// recovered server replays the corpus — `requests_lost` must be 0 and
/// `warm_identical_after_crash` must be `true` (recovery may cost
/// cache misses, never a changed answer). [`validate`] also now
/// reports *every* violated acceptance bar, not just the first.
/// v10: every analysis runs exactly one engine, always cold, so the
/// sections that compared engines go: sweep rows lose
/// `pde_solver_fifo` and `pde_solver_noincr`, the document loses
/// `pops_reduction_pct`, `incremental_pops_reduction_pct` and the
/// `sparse` A/B (and the four bars they carried), and solver stats lose
/// the counters that can no longer vary (`sweeps`, `fifo_pops`,
/// `cold_solves`, `warm_solves`, `seeded_pops`).
pub const SCHEMA_VERSION: u64 = 10;

/// The acceptance bar on `tv.tv_overhead_pct`: per-round translation
/// validation (at the benchmarked vector count) must cost less than
/// this much wall time over the unvalidated run.
pub const MAX_TV_OVERHEAD_PCT: f64 = 10.0;

/// The acceptance bar on `csr.csr_walltime_reduction_pct`: sharing one
/// revision-cached CSR `CfgView` across the analysis layers must save
/// at least this much wall time over per-consumer rebuilding.
pub const MIN_CSR_WALLTIME_REDUCTION_PCT: f64 = 10.0;

/// The acceptance bar on `metrics.metrics_overhead_pct`: the always-on
/// metrics plane (registry counters, latency histograms) must cost less
/// than this much wall time over the same workload with recording
/// suppressed.
pub const MAX_METRICS_OVERHEAD_PCT: f64 = 2.0;

/// The acceptance bar on `serve.req_per_sec`: the daemon must sustain at
/// least this many small-program requests per second on the warm
/// (cache-resident) replay.
pub const MIN_SERVE_REQ_PER_SEC: f64 = 10_000.0;

/// The acceptance bar on `serve.warm_speedup_pct`: answering the corpus
/// from the persistent result cache must save at least this much wall
/// time over computing it cold.
pub const MIN_SERVE_WARM_SPEEDUP_PCT: f64 = 30.0;

/// The acceptance bar on `recovery.wal_overhead_pct`: journaling every
/// cache insert through the checksummed write-ahead log must cost less
/// than this much wall time over the same cold replay without it.
pub const MAX_WAL_OVERHEAD_PCT: f64 = 5.0;

/// One figure reproduction with its cost.
#[derive(Debug, Clone)]
pub struct FigureRow {
    /// Paper figure id (`"F1→F2"`).
    pub id: String,
    /// Whether the optimized program matched the paper's expectation.
    pub reproduced: bool,
    /// Driver rounds to stabilization.
    pub rounds: u64,
    /// Assignments eliminated.
    pub eliminated: u64,
    /// Wall time of the driver run, nanoseconds.
    pub time_ns: u128,
    /// Data-flow solver telemetry for the run.
    pub solver: SolverStats,
}

/// One point of the structured-program scaling sweep.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Nominal target size (blocks requested from the generator).
    pub target: usize,
    /// Actual blocks.
    pub blocks: usize,
    /// Actual statements.
    pub stmts: usize,
    /// Best-of-reps pde wall time, nanoseconds.
    pub pde_ns: u128,
    /// Best-of-reps pfe wall time, nanoseconds.
    pub pfe_ns: u128,
    /// Solver telemetry of the (best) pde run.
    pub pde_solver: SolverStats,
}

/// The disabled-tracing overhead A/B timing.
///
/// Instrumentation cannot be compiled out at run time, so the bound is
/// established by interleaved best-of-N timings of the *same* workload:
/// `disabled_a_ns` and `disabled_b_ns` are two independent disabled-mode
/// measurements (their relative delta bounds instrumentation cost plus
/// measurement noise — the <2% acceptance bar), and `enabled_ns` is the
/// same workload with a buffering collector installed, for context.
#[derive(Debug, Clone)]
pub struct TracingAb {
    /// What was timed.
    pub workload: String,
    /// Best-of-N, tracing disabled, series A (nanoseconds).
    pub disabled_a_ns: u128,
    /// Best-of-N, tracing disabled, series B (nanoseconds).
    pub disabled_b_ns: u128,
    /// `|A - B| / min(A, B)` in percent — the disabled-mode bound.
    pub disabled_ab_delta_pct: f64,
    /// Best-of-N with a `Collector` installed (nanoseconds).
    pub enabled_ns: u128,
    /// `(enabled - disabled) / disabled` in percent.
    pub enabled_overhead_pct: f64,
}

/// The translation-validation overhead A/B timing: the same workload
/// optimized with per-round semantic validation off (`off_ns`) and on
/// (`on_ns`, at `vectors` seeded input vectors per round).
#[derive(Debug, Clone)]
pub struct TvAb {
    /// What was timed.
    pub workload: String,
    /// Seeded input vectors per round in the validated series.
    pub vectors: u32,
    /// Best-of-N, validation off (nanoseconds).
    pub off_ns: u128,
    /// Best-of-N, validation on (nanoseconds).
    pub on_ns: u128,
    /// `max(0, on - off) / off` in percent — held against
    /// [`MAX_TV_OVERHEAD_PCT`] by [`validate`].
    pub tv_overhead_pct: f64,
}

/// The shared-`CfgView` A/B timing: the same analysis workload with
/// every consumer rebuilding its own flow-graph adjacency and traversal
/// orders per analysis (`legacy_ns`, the pre-CSR access pattern) and
/// with one revision-memoized CSR view shared through the
/// `AnalysisCache` (`csr_ns`).
#[derive(Debug, Clone)]
pub struct CsrAb {
    /// What was timed.
    pub workload: String,
    /// Best-of-N, per-consumer rebuilds (nanoseconds).
    pub legacy_ns: u128,
    /// Best-of-N, one cached CSR view (nanoseconds).
    pub csr_ns: u128,
    /// `max(0, legacy - csr) / legacy` in percent — held against
    /// [`MIN_CSR_WALLTIME_REDUCTION_PCT`] by [`validate`].
    pub csr_walltime_reduction_pct: f64,
}

/// Per-pass wall-time quantiles, read from the `pdce_pass_wall_ns`
/// histogram family of the metrics registry after the benchmark
/// workload. Quantile values are the inclusive upper edge of the log₂
/// bucket holding the requested rank — a pure function of the bucket
/// counts, so the numbers are merge-order independent.
#[derive(Debug, Clone)]
pub struct PassLatencyRow {
    /// Pass name (the `pass` label of the series).
    pub pass: String,
    /// Samples observed.
    pub count: u64,
    /// p50 upper bucket edge, nanoseconds.
    pub p50_ns: u64,
    /// p90 upper bucket edge, nanoseconds.
    pub p90_ns: u64,
    /// p99 upper bucket edge, nanoseconds.
    pub p99_ns: u64,
    /// Maximum estimate (upper edge of the highest occupied bucket),
    /// nanoseconds.
    pub max_ns: u64,
}

/// The metrics-plane section: recording-overhead A/B, cross-`jobs`
/// snapshot stability, and per-pass latency quantiles.
///
/// The A/B times the *same* workload with registry recording enabled
/// (`on_ns`) and suppressed via the runtime gate (`off_ns`) — unlike
/// the tracing A/B, which can only bound disabled-mode noise, the
/// metrics gate genuinely turns the atomic updates on and off, so
/// `metrics_overhead_pct` is a direct measurement held against
/// [`MAX_METRICS_OVERHEAD_PCT`].
#[derive(Debug, Clone)]
pub struct MetricsSection {
    /// What was timed.
    pub workload: String,
    /// Best-of-N, recording suppressed (nanoseconds).
    pub off_ns: u128,
    /// Best-of-N, recording enabled (nanoseconds).
    pub on_ns: u128,
    /// `max(0, on - off) / off` in percent — held against
    /// [`MAX_METRICS_OVERHEAD_PCT`] by [`validate`].
    pub metrics_overhead_pct: f64,
    /// Whether the deterministic exposition (`prometheus_deterministic`
    /// deltas) of the corpus run was byte-identical between `jobs=1`
    /// and `jobs=4`. [`validate`] requires `true`.
    pub snapshot_stable: bool,
    /// Per-pass wall-time quantiles. [`validate`] requires at least one
    /// row.
    pub pass_latency: Vec<PassLatencyRow>,
}

/// The `pdce serve` daemon section: a cold-vs-warm-cache A/B of the
/// same request corpus replayed through the serving path.
///
/// The corpus is first served against an empty cache (`cold_ns`, every
/// request computed) and then replayed verbatim (`warm_ns`, every
/// request answered from the content-hash-keyed result cache).
/// Throughput and latency quantiles are measured on the warm replay —
/// the steady state of repeat traffic the daemon exists for — and
/// `p99_ns` is held against the `--wall-ms` admission cap the run was
/// configured with (`wall_ms_budget`, milliseconds).
#[derive(Debug, Clone)]
pub struct ServeSection {
    /// What was served.
    pub workload: String,
    /// Requests in the corpus (one replay's worth).
    pub requests: u64,
    /// Wall time of the cold (cache-empty) replay, nanoseconds.
    pub cold_ns: u128,
    /// Wall time of the warm (cache-resident) replay, nanoseconds.
    pub warm_ns: u128,
    /// Sustained warm-replay throughput — held against
    /// [`MIN_SERVE_REQ_PER_SEC`] by [`validate`].
    pub req_per_sec: f64,
    /// Median warm-replay request latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile warm-replay request latency, nanoseconds — held
    /// against `wall_ms_budget` by [`validate`].
    pub p99_ns: u64,
    /// The `--wall-ms` admission cap the run was configured with.
    pub wall_ms_budget: u64,
    /// Whether every warm response was byte-identical to its cold
    /// counterpart. [`validate`] requires `true`.
    pub warm_identical: bool,
    /// `max(0, cold - warm) / cold` in percent — held against
    /// [`MIN_SERVE_WARM_SPEEDUP_PCT`] by [`validate`].
    pub warm_speedup_pct: f64,
}

/// The self-healing serving section: the WAL overhead A/B and the
/// simulated-crash recovery drill.
///
/// The A/B cold-replays the same corpus with the persistent cache held
/// purely in memory (`wal_off_ns`) and with every insert journaled
/// through the checksummed write-ahead log (`wal_on_ns`). The drill
/// then serves the corpus with the log as the *only* persistence, drops
/// the server without a clean save — exactly the state a `kill -9`
/// leaves on disk — and replays the corpus on a recovered server:
/// recovery may cost cache misses (recomputed answers), but never a
/// lost request or a changed byte.
#[derive(Debug, Clone)]
pub struct RecoverySection {
    /// What was served.
    pub workload: String,
    /// Requests in the corpus (one replay's worth).
    pub requests: u64,
    /// Requests whose post-recovery answer was missing or diverged from
    /// the pre-crash one. [`validate`] requires exactly 0.
    pub requests_lost: u64,
    /// Whether every post-recovery response was byte-identical to its
    /// pre-crash counterpart. [`validate`] requires `true`.
    pub warm_identical_after_crash: bool,
    /// Best-of-N cold replay, cache in memory only (nanoseconds).
    pub wal_off_ns: u128,
    /// Best-of-N cold replay, inserts journaled to the WAL
    /// (nanoseconds).
    pub wal_on_ns: u128,
    /// `max(0, on - off) / off` in percent — held against
    /// [`MAX_WAL_OVERHEAD_PCT`] by [`validate`].
    pub wal_overhead_pct: f64,
    /// Log lines appended during the pre-crash replay.
    pub wal_appends: u64,
    /// Cache entries recovered from the log by the post-crash load.
    pub wal_recovered: u64,
}

/// Fault-tolerance counters accumulated over the benchmark run
/// (the driver's `PdceStats` resilience fields, summed).
#[derive(Debug, Clone, Default)]
pub struct ResilienceTotals {
    /// Checkpoint restores (pass failures and TV rejections).
    pub rollbacks: u64,
    /// Ladder steps taken by the resilient driver.
    pub degradations: u64,
    /// Rounds checked by translation validation.
    pub tv_checks: u64,
    /// Rounds rejected and rolled back by translation validation.
    pub tv_rollbacks: u64,
    /// Runs aborted by an exhausted round/pop/wall budget.
    pub budget_exhaustions: u64,
}

/// The complete document.
#[derive(Debug, Clone)]
pub struct BenchSummary {
    /// Whether this was a `--quick` (CI smoke) run.
    pub quick: bool,
    /// Per-figure rows.
    pub figures: Vec<FigureRow>,
    /// Scaling sweep rows.
    pub sweep: Vec<SweepRow>,
    /// The tracing overhead A/B.
    pub tracing: TracingAb,
    /// The translation-validation overhead A/B.
    pub tv: TvAb,
    /// The shared-`CfgView` A/B.
    pub csr: CsrAb,
    /// The metrics-plane section.
    pub metrics: MetricsSection,
    /// The serving cold-vs-warm A/B.
    pub serve: ServeSection,
    /// The self-healing serving section (WAL overhead + crash drill).
    pub recovery: RecoverySection,
    /// Resilience counters accumulated over the run.
    pub resilience: ResilienceTotals,
}

fn write_solver(out: &mut String, s: &SolverStats) {
    let _ = write!(
        out,
        "{{\"problems\":{},\"evaluations\":{},\"revisits\":{},\"word_ops\":{},\
         \"priority_pops\":{},\"sparse_pops\":{},\"sparse_edge_visits\":{}}}",
        s.problems,
        s.evaluations,
        s.revisits,
        s.word_ops,
        s.priority_pops,
        s.sparse_pops,
        s.sparse_edge_visits
    );
}

impl BenchSummary {
    /// Serializes the summary (one row per line, schema-stable).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n\"schema_version\":{SCHEMA_VERSION},\n\"quick\":{},\n\"figures\":[",
            self.quick
        );
        for (i, f) in self.figures.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "{{\"id\":{},\"reproduced\":{},\"rounds\":{},\"eliminated\":{},\"time_ns\":{},\"solver\":",
                json::escaped(&f.id),
                f.reproduced,
                f.rounds,
                f.eliminated,
                f.time_ns
            );
            write_solver(&mut out, &f.solver);
            out.push('}');
        }
        out.push_str("\n],\n\"sweep\":[");
        for (i, s) in self.sweep.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "{{\"target\":{},\"blocks\":{},\"stmts\":{},\"pde_ns\":{},\"pfe_ns\":{},\"pde_solver\":",
                s.target, s.blocks, s.stmts, s.pde_ns, s.pfe_ns
            );
            write_solver(&mut out, &s.pde_solver);
            out.push('}');
        }
        out.push_str("\n],");
        let t = &self.tracing;
        let _ = write!(
            out,
            "\n\"tracing\":{{\"workload\":{},\"disabled_a_ns\":{},\"disabled_b_ns\":{},\
             \"disabled_ab_delta_pct\":{:.3},\"enabled_ns\":{},\"enabled_overhead_pct\":{:.3}}},",
            json::escaped(&t.workload),
            t.disabled_a_ns,
            t.disabled_b_ns,
            t.disabled_ab_delta_pct,
            t.enabled_ns,
            t.enabled_overhead_pct
        );
        let v = &self.tv;
        let _ = write!(
            out,
            "\n\"tv\":{{\"workload\":{},\"vectors\":{},\"off_ns\":{},\"on_ns\":{},\
             \"tv_overhead_pct\":{:.3}}},",
            json::escaped(&v.workload),
            v.vectors,
            v.off_ns,
            v.on_ns,
            v.tv_overhead_pct
        );
        let c = &self.csr;
        let _ = write!(
            out,
            "\n\"csr\":{{\"workload\":{},\"legacy_ns\":{},\"csr_ns\":{},\
             \"csr_walltime_reduction_pct\":{:.3}}},",
            json::escaped(&c.workload),
            c.legacy_ns,
            c.csr_ns,
            c.csr_walltime_reduction_pct
        );
        let m = &self.metrics;
        let _ = write!(
            out,
            "\n\"metrics\":{{\"workload\":{},\"off_ns\":{},\"on_ns\":{},\
             \"metrics_overhead_pct\":{:.3},\"snapshot_stable\":{},\"pass_latency\":[",
            json::escaped(&m.workload),
            m.off_ns,
            m.on_ns,
            m.metrics_overhead_pct,
            m.snapshot_stable
        );
        for (i, p) in m.pass_latency.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "{{\"pass\":{},\"count\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                json::escaped(&p.pass),
                p.count,
                p.p50_ns,
                p.p90_ns,
                p.p99_ns,
                p.max_ns
            );
        }
        out.push_str("\n]},");
        let sv = &self.serve;
        let _ = write!(
            out,
            "\n\"serve\":{{\"workload\":{},\"requests\":{},\"cold_ns\":{},\"warm_ns\":{},\
             \"req_per_sec\":{:.1},\"p50_ns\":{},\"p99_ns\":{},\"wall_ms_budget\":{},\
             \"warm_identical\":{},\"warm_speedup_pct\":{:.3}}},",
            json::escaped(&sv.workload),
            sv.requests,
            sv.cold_ns,
            sv.warm_ns,
            sv.req_per_sec,
            sv.p50_ns,
            sv.p99_ns,
            sv.wall_ms_budget,
            sv.warm_identical,
            sv.warm_speedup_pct
        );
        let rc = &self.recovery;
        let _ = write!(
            out,
            "\n\"recovery\":{{\"workload\":{},\"requests\":{},\"requests_lost\":{},\
             \"warm_identical_after_crash\":{},\"wal_off_ns\":{},\"wal_on_ns\":{},\
             \"wal_overhead_pct\":{:.3},\"wal_appends\":{},\"wal_recovered\":{}}},",
            json::escaped(&rc.workload),
            rc.requests,
            rc.requests_lost,
            rc.warm_identical_after_crash,
            rc.wal_off_ns,
            rc.wal_on_ns,
            rc.wal_overhead_pct,
            rc.wal_appends,
            rc.wal_recovered
        );
        let r = &self.resilience;
        let _ = write!(
            out,
            "\n\"resilience\":{{\"rollbacks\":{},\"degradations\":{},\"tv_checks\":{},\
             \"tv_rollbacks\":{},\"budget_exhaustions\":{}}}\n}}\n",
            r.rollbacks, r.degradations, r.tv_checks, r.tv_rollbacks, r.budget_exhaustions
        );
        out
    }
}

fn require<'a>(obj: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, String> {
    obj.get(key)
        .ok_or_else(|| format!("{ctx}: missing key `{key}`"))
}

fn require_num(obj: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    require(obj, key, ctx)?
        .as_num()
        .ok_or_else(|| format!("{ctx}: `{key}` is not a number"))
}

fn check_solver(v: &Value, ctx: &str) -> Result<(), String> {
    for key in [
        "problems",
        "evaluations",
        "revisits",
        "word_ops",
        "priority_pops",
        "sparse_pops",
        "sparse_edge_visits",
    ] {
        let n = require_num(v, key, ctx)?;
        if n < 0.0 {
            return Err(format!("{ctx}: `{key}` is negative"));
        }
    }
    Ok(())
}

/// Validates an emitted `BENCH_PDE.json` document against the schema:
/// well-formed JSON, the expected keys with the expected types, at least
/// one figure row, and every figure reproduced.
///
/// # Errors
///
/// Structural problems (malformed JSON, missing or mistyped keys) fail
/// fast with the first violation — nothing after them can be trusted.
/// Acceptance-*bar* violations are collected and reported together, so
/// one regressed number never masks another.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = json::parse(text)?;
    let version = require_num(&doc, "schema_version", "document")?;
    if version != SCHEMA_VERSION as f64 {
        return Err(format!("unsupported schema_version {version}"));
    }
    require(&doc, "quick", "document")?
        .as_bool()
        .ok_or("`quick` is not a bool")?;
    let mut bars: Vec<String> = Vec::new();
    let figures = require(&doc, "figures", "document")?
        .as_arr()
        .ok_or("`figures` is not an array")?;
    if figures.is_empty() {
        return Err("`figures` is empty".into());
    }
    for (i, f) in figures.iter().enumerate() {
        let ctx = format!("figures[{i}]");
        require(f, "id", &ctx)?
            .as_str()
            .ok_or_else(|| format!("{ctx}: `id` is not a string"))?;
        let reproduced = require(f, "reproduced", &ctx)?
            .as_bool()
            .ok_or_else(|| format!("{ctx}: `reproduced` is not a bool"))?;
        if !reproduced {
            bars.push(format!("{ctx}: figure not reproduced"));
        }
        for key in ["rounds", "eliminated", "time_ns"] {
            require_num(f, key, &ctx)?;
        }
        check_solver(require(f, "solver", &ctx)?, &ctx)?;
    }
    let sweep = require(&doc, "sweep", "document")?
        .as_arr()
        .ok_or("`sweep` is not an array")?;
    for (i, s) in sweep.iter().enumerate() {
        let ctx = format!("sweep[{i}]");
        for key in ["target", "blocks", "stmts", "pde_ns", "pfe_ns"] {
            require_num(s, key, &ctx)?;
        }
        check_solver(require(s, "pde_solver", &ctx)?, &ctx)?;
    }
    let tracing = require(&doc, "tracing", "document")?;
    require(tracing, "workload", "tracing")?
        .as_str()
        .ok_or("`tracing.workload` is not a string")?;
    for key in [
        "disabled_a_ns",
        "disabled_b_ns",
        "disabled_ab_delta_pct",
        "enabled_ns",
        "enabled_overhead_pct",
    ] {
        require_num(tracing, key, "tracing")?;
    }
    let tv = require(&doc, "tv", "document")?;
    require(tv, "workload", "tv")?
        .as_str()
        .ok_or("`tv.workload` is not a string")?;
    for key in ["vectors", "off_ns", "on_ns"] {
        require_num(tv, key, "tv")?;
    }
    let tv_overhead = require_num(tv, "tv_overhead_pct", "tv")?;
    if tv_overhead >= MAX_TV_OVERHEAD_PCT {
        bars.push(format!(
            "tv_overhead_pct {tv_overhead:.3} breaks the <{MAX_TV_OVERHEAD_PCT}% acceptance bar"
        ));
    }
    let csr = require(&doc, "csr", "document")?;
    require(csr, "workload", "csr")?
        .as_str()
        .ok_or("`csr.workload` is not a string")?;
    for key in ["legacy_ns", "csr_ns"] {
        require_num(csr, key, "csr")?;
    }
    let csr_reduction = require_num(csr, "csr_walltime_reduction_pct", "csr")?;
    if csr_reduction < MIN_CSR_WALLTIME_REDUCTION_PCT {
        bars.push(format!(
            "csr_walltime_reduction_pct {csr_reduction:.3} below the \
             {MIN_CSR_WALLTIME_REDUCTION_PCT}% acceptance bar"
        ));
    }
    let metrics = require(&doc, "metrics", "document")?;
    require(metrics, "workload", "metrics")?
        .as_str()
        .ok_or("`metrics.workload` is not a string")?;
    for key in ["off_ns", "on_ns"] {
        require_num(metrics, key, "metrics")?;
    }
    let metrics_overhead = require_num(metrics, "metrics_overhead_pct", "metrics")?;
    if metrics_overhead >= MAX_METRICS_OVERHEAD_PCT {
        bars.push(format!(
            "metrics_overhead_pct {metrics_overhead:.3} breaks the \
             <{MAX_METRICS_OVERHEAD_PCT}% acceptance bar"
        ));
    }
    let stable = require(metrics, "snapshot_stable", "metrics")?
        .as_bool()
        .ok_or("`metrics.snapshot_stable` is not a bool")?;
    if !stable {
        bars.push(
            "metrics: deterministic snapshot differed between jobs=1 and jobs=4 \
             (`snapshot_stable` is false)"
                .into(),
        );
    }
    let pass_latency = require(metrics, "pass_latency", "metrics")?
        .as_arr()
        .ok_or("`metrics.pass_latency` is not an array")?;
    if pass_latency.is_empty() {
        return Err("`metrics.pass_latency` is empty".into());
    }
    for (i, p) in pass_latency.iter().enumerate() {
        let ctx = format!("metrics.pass_latency[{i}]");
        require(p, "pass", &ctx)?
            .as_str()
            .ok_or_else(|| format!("{ctx}: `pass` is not a string"))?;
        for key in ["count", "p50_ns", "p90_ns", "p99_ns", "max_ns"] {
            let n = require_num(p, key, &ctx)?;
            if n < 0.0 {
                return Err(format!("{ctx}: `{key}` is negative"));
            }
        }
    }
    let serve = require(&doc, "serve", "document")?;
    require(serve, "workload", "serve")?
        .as_str()
        .ok_or("`serve.workload` is not a string")?;
    for key in ["requests", "cold_ns", "warm_ns", "p50_ns"] {
        let n = require_num(serve, key, "serve")?;
        if n < 0.0 {
            return Err(format!("serve: `{key}` is negative"));
        }
    }
    let req_per_sec = require_num(serve, "req_per_sec", "serve")?;
    if req_per_sec < MIN_SERVE_REQ_PER_SEC {
        bars.push(format!(
            "serve.req_per_sec {req_per_sec:.1} below the {MIN_SERVE_REQ_PER_SEC} req/s \
             acceptance bar"
        ));
    }
    let p99 = require_num(serve, "p99_ns", "serve")?;
    let wall_budget = require_num(serve, "wall_ms_budget", "serve")?;
    if wall_budget <= 0.0 {
        return Err("serve: `wall_ms_budget` is not positive".into());
    }
    if p99 > wall_budget * 1_000_000.0 {
        bars.push(format!(
            "serve.p99_ns {p99:.0} exceeds the --wall-ms admission cap of {wall_budget:.0} ms"
        ));
    }
    let identical = require(serve, "warm_identical", "serve")?
        .as_bool()
        .ok_or("`serve.warm_identical` is not a bool")?;
    if !identical {
        bars.push(
            "serve: warm-cache responses differed from cold ones (`warm_identical` is false)"
                .into(),
        );
    }
    let speedup = require_num(serve, "warm_speedup_pct", "serve")?;
    if speedup < MIN_SERVE_WARM_SPEEDUP_PCT {
        bars.push(format!(
            "serve.warm_speedup_pct {speedup:.3} below the {MIN_SERVE_WARM_SPEEDUP_PCT}% \
             acceptance bar"
        ));
    }
    let recovery = require(&doc, "recovery", "document")?;
    require(recovery, "workload", "recovery")?
        .as_str()
        .ok_or("`recovery.workload` is not a string")?;
    for key in [
        "requests",
        "wal_off_ns",
        "wal_on_ns",
        "wal_appends",
        "wal_recovered",
    ] {
        let n = require_num(recovery, key, "recovery")?;
        if n < 0.0 {
            return Err(format!("recovery: `{key}` is negative"));
        }
    }
    let lost = require_num(recovery, "requests_lost", "recovery")?;
    if lost != 0.0 {
        bars.push(format!(
            "recovery.requests_lost is {lost:.0} (the crash drill must lose nothing)"
        ));
    }
    let crash_identical = require(recovery, "warm_identical_after_crash", "recovery")?
        .as_bool()
        .ok_or("`recovery.warm_identical_after_crash` is not a bool")?;
    if !crash_identical {
        bars.push(
            "recovery: post-crash responses differed from pre-crash ones \
             (`warm_identical_after_crash` is false)"
                .into(),
        );
    }
    let wal_overhead = require_num(recovery, "wal_overhead_pct", "recovery")?;
    if wal_overhead >= MAX_WAL_OVERHEAD_PCT {
        bars.push(format!(
            "recovery.wal_overhead_pct {wal_overhead:.3} breaks the \
             <{MAX_WAL_OVERHEAD_PCT}% acceptance bar"
        ));
    }
    let resilience = require(&doc, "resilience", "document")?;
    for key in [
        "rollbacks",
        "degradations",
        "tv_checks",
        "tv_rollbacks",
        "budget_exhaustions",
    ] {
        let n = require_num(resilience, key, "resilience")?;
        if n < 0.0 {
            return Err(format!("resilience: `{key}` is negative"));
        }
    }
    // A benchmark run that never exercised validation cannot claim a
    // TV overhead number.
    let checks = require_num(resilience, "tv_checks", "resilience")?;
    if checks == 0.0 {
        bars.push("resilience: `tv_checks` is zero but a `tv` A/B is present".into());
    }
    match bars.len() {
        0 => Ok(()),
        1 => Err(bars.remove(0)),
        n => Err(format!(
            "{n} acceptance bars failed:\n  - {}",
            bars.join("\n  - ")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchSummary {
        let sweep = vec![SweepRow {
            target: 24,
            blocks: 25,
            stmts: 70,
            pde_ns: 1_000_000,
            pfe_ns: 2_000_000,
            pde_solver: SolverStats {
                problems: 9,
                evaluations: 130,
                priority_pops: 130,
                ..SolverStats::ZERO
            },
        }];
        BenchSummary {
            quick: true,
            figures: vec![FigureRow {
                id: "F1→F2".into(),
                reproduced: true,
                rounds: 3,
                eliminated: 1,
                time_ns: 52_000,
                solver: SolverStats {
                    problems: 9,
                    evaluations: 120,
                    revisits: 40,
                    word_ops: 900,
                    priority_pops: 120,
                    ..SolverStats::ZERO
                },
            }],
            sweep,
            tracing: TracingAb {
                workload: "pde over 2 structured programs".into(),
                disabled_a_ns: 1_000_000,
                disabled_b_ns: 1_004_000,
                disabled_ab_delta_pct: 0.4,
                enabled_ns: 1_400_000,
                enabled_overhead_pct: 40.0,
            },
            tv: TvAb {
                workload: "pde over 2 structured programs".into(),
                vectors: 4,
                off_ns: 1_000_000,
                on_ns: 1_050_000,
                tv_overhead_pct: 5.0,
            },
            csr: CsrAb {
                workload: "5 analyses over 2 structured programs".into(),
                legacy_ns: 1_300_000,
                csr_ns: 1_000_000,
                csr_walltime_reduction_pct: 23.077,
            },
            metrics: MetricsSection {
                workload: "pde over 2 structured programs".into(),
                off_ns: 1_000_000,
                on_ns: 1_008_000,
                metrics_overhead_pct: 0.8,
                snapshot_stable: true,
                pass_latency: vec![PassLatencyRow {
                    pass: "pde".into(),
                    count: 16,
                    p50_ns: 524_287,
                    p90_ns: 1_048_575,
                    p99_ns: 2_097_151,
                    max_ns: 2_097_151,
                }],
            },
            serve: ServeSection {
                workload: "200 structured programs, in-process replay".into(),
                requests: 200,
                cold_ns: 50_000_000,
                warm_ns: 5_000_000,
                req_per_sec: 40_000.0,
                p50_ns: 20_000,
                p99_ns: 110_000,
                wall_ms_budget: 200,
                warm_identical: true,
                warm_speedup_pct: 90.0,
            },
            recovery: RecoverySection {
                workload: "60 structured programs, kill -9 drill".into(),
                requests: 60,
                requests_lost: 0,
                warm_identical_after_crash: true,
                wal_off_ns: 10_000_000,
                wal_on_ns: 10_200_000,
                wal_overhead_pct: 2.0,
                wal_appends: 60,
                wal_recovered: 60,
            },
            resilience: ResilienceTotals {
                tv_checks: 6,
                ..ResilienceTotals::default()
            },
        }
    }

    #[test]
    fn emitted_document_validates() {
        let text = sample().to_json();
        validate(&text).expect("schema-valid");
    }

    #[test]
    fn serialization_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn validation_rejects_violations() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        // A failed figure reproduction is a schema violation: the
        // summary must never silently publish a broken corpus.
        let mut s = sample();
        s.figures[0].reproduced = false;
        assert!(validate(&s.to_json()).unwrap_err().contains("reproduced"));
        // Tampered solver counters are caught.
        let good = sample().to_json();
        let bad = good.replace("\"word_ops\":900", "\"word_ops\":\"x\"");
        assert!(validate(&bad).is_err());
    }

    #[test]
    fn validation_enforces_tv_overhead_bar() {
        let mut s = sample();
        s.tv.tv_overhead_pct = 23.5;
        assert!(validate(&s.to_json())
            .unwrap_err()
            .contains("tv_overhead_pct"));
        // Exactly at the bar still fails: the contract is strictly under.
        s.tv.tv_overhead_pct = MAX_TV_OVERHEAD_PCT;
        assert!(validate(&s.to_json()).is_err());
    }

    #[test]
    fn validation_enforces_csr_walltime_bar() {
        let mut s = sample();
        // A cached view that saves no wall time fails the ≥10% bar.
        s.csr.csr_walltime_reduction_pct = 4.2;
        assert!(validate(&s.to_json())
            .unwrap_err()
            .contains("csr_walltime_reduction_pct"));
    }

    #[test]
    fn validation_enforces_metrics_overhead_bar() {
        let mut s = sample();
        s.metrics.metrics_overhead_pct = 3.7;
        assert!(validate(&s.to_json())
            .unwrap_err()
            .contains("metrics_overhead_pct"));
        // Exactly at the bar still fails: the contract is strictly under.
        s.metrics.metrics_overhead_pct = MAX_METRICS_OVERHEAD_PCT;
        assert!(validate(&s.to_json()).is_err());
    }

    #[test]
    fn validation_requires_stable_snapshots_and_pass_latency() {
        let mut s = sample();
        s.metrics.snapshot_stable = false;
        assert!(validate(&s.to_json())
            .unwrap_err()
            .contains("snapshot_stable"));
        let mut s = sample();
        s.metrics.pass_latency.clear();
        assert!(validate(&s.to_json()).unwrap_err().contains("pass_latency"));
    }

    #[test]
    fn validation_enforces_serve_bars() {
        // Throughput below the sustained-req/s bar.
        let mut s = sample();
        s.serve.req_per_sec = 512.0;
        assert!(validate(&s.to_json()).unwrap_err().contains("req_per_sec"));
        // p99 above the --wall-ms admission cap.
        let mut s = sample();
        s.serve.p99_ns = 201_000_000;
        assert!(validate(&s.to_json()).unwrap_err().contains("p99_ns"));
        // Warm responses must be byte-identical to cold ones.
        let mut s = sample();
        s.serve.warm_identical = false;
        assert!(validate(&s.to_json())
            .unwrap_err()
            .contains("warm_identical"));
        // Warm-cache replay must actually be faster.
        let mut s = sample();
        s.serve.warm_speedup_pct = 3.0;
        assert!(validate(&s.to_json())
            .unwrap_err()
            .contains("warm_speedup_pct"));
    }

    #[test]
    fn validation_requires_tv_checks_behind_the_ab() {
        let mut s = sample();
        s.resilience.tv_checks = 0;
        assert!(validate(&s.to_json()).unwrap_err().contains("tv_checks"));
    }

    #[test]
    fn validation_enforces_recovery_bars() {
        // The crash drill may recompute, but must never lose a request.
        let mut s = sample();
        s.recovery.requests_lost = 3;
        assert!(validate(&s.to_json())
            .unwrap_err()
            .contains("requests_lost"));
        // Post-crash answers must match pre-crash answers byte for byte.
        let mut s = sample();
        s.recovery.warm_identical_after_crash = false;
        assert!(validate(&s.to_json())
            .unwrap_err()
            .contains("warm_identical_after_crash"));
        // Journaling that costs real throughput fails the <5% bar;
        // exactly at the bar still fails (the contract is strictly under).
        let mut s = sample();
        s.recovery.wal_overhead_pct = MAX_WAL_OVERHEAD_PCT;
        assert!(validate(&s.to_json())
            .unwrap_err()
            .contains("wal_overhead_pct"));
    }

    #[test]
    fn validation_reports_every_violated_bar_at_once() {
        let mut s = sample();
        s.recovery.requests_lost = 1;
        s.recovery.warm_identical_after_crash = false;
        s.serve.warm_speedup_pct = 0.0;
        let err = validate(&s.to_json()).unwrap_err();
        assert!(err.contains("3 acceptance bars failed"), "{err}");
        assert!(err.contains("requests_lost"), "{err}");
        assert!(err.contains("warm_identical_after_crash"), "{err}");
        assert!(err.contains("warm_speedup_pct"), "{err}");
    }
}
