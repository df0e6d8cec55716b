//! The serving loop: admission control, cache, pool sharding, transport.
//!
//! A [`Server`] is a stateless-per-request engine plus three shared
//! resources: the persistent result cache, the configured budget caps
//! and one supervised worker pool (`pdce_par::SupervisedPool`, one
//! long-lived thread per `jobs` slot, started by the first batch).
//! Connections feed it newline-delimited requests; each connection runs
//! an *adaptive batching* dispatcher — block for the first pending
//! line, then greedily drain whatever else has already arrived (up to
//! `jobs * 8`) and shard the batch across the pool, which every
//! connection shares. An idle client gets single-request latency; a
//! flooding client gets full-pool throughput; and because the pool
//! reassembles results in item order, responses always come back in
//! request order regardless of worker count.
//!
//! Admission control is the PR 5 budget machinery turned per-request: a
//! request may lower but never raise the server's round/pop/wall caps,
//! and an exhausted budget degrades that one request down the
//! resilience ladder (the answer is still served, labelled with its
//! rung) instead of stalling the fleet. A worker panic is sandboxed by
//! the pool and answered as a structured `status` 2 error.
//!
//! The self-healing layer sits on top of admission. There is one
//! failure path: the optimizer's own resilience ladder
//! (`optimize_resilient`: configured → elimination-only → identity)
//! runs once per computed request, and a failure that escapes it
//! anyway is answered with the input unchanged at the `"identity"`
//! rung. Either way a degraded answer strikes its program hash and is
//! not cached; a hash that keeps failing is quarantined (persisted
//! next to the cache) and short-circuited to an identity answer. The
//! optimizer is deterministic, so re-running a failed request could
//! not answer differently. The pool supervises every batch with a
//! watchdog whose soft deadline raises the cooperative cancellation
//! flag and whose hard deadline abandons a wedged worker and gives its
//! slot to a fresh thread, so one hostage request never stalls its
//! batch or shrinks the pool. Status counts and quarantine verdicts are
//! settled on the dispatcher, so a hostage that wakes later counts
//! nothing.

use std::io::{BufRead, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pdce_core::driver::{optimize_resilient, PdceConfig};
use pdce_core::RunTotals;
use pdce_ir::parser::parse;
use pdce_ir::printer::print_program;
use pdce_trace::budget::Budget;
use pdce_trace::metrics::{CounterFamily, Snapshot, Stability};

use pdce_par::{ItemOutcome, SupervisedPool, SupervisorOptions};

use crate::cache::{CacheKey, PersistentCache, StoredResult};
use crate::protocol::{
    render_error, render_health, render_pong, render_result, render_shutdown, render_stored, Mode,
    Op, Request, ResultPayload, Status,
};
use crate::quarantine::Quarantine;

/// Registry handles for what no server field counts: the latency and
/// batch-size histograms and the idle poll loop's wakeups, all
/// timing-dependent.
mod serve_metrics {
    use pdce_trace::metrics::{global, Counter, Histogram, Stability};
    use std::sync::{Arc, LazyLock};

    pub static REQUEST_WALL: LazyLock<Arc<Histogram>> = LazyLock::new(|| {
        global().histogram(
            "pdce_serve_request_wall_ns",
            "Per-request end-to-end serve latency in nanoseconds",
            Stability::Timing,
            &[],
        )
    });
    pub static BATCH_ITEMS: LazyLock<Arc<Histogram>> = LazyLock::new(|| {
        global().histogram(
            "pdce_serve_batch_items",
            "Requests per adaptive dispatcher batch",
            Stability::Timing,
            &[],
        )
    });
    pub static IDLE_WAKEUPS: LazyLock<Arc<Counter>> = LazyLock::new(|| {
        global().counter(
            "pdce_serve_idle_wakeups_total",
            "Poll-loop wakeups that found no pending input (bounded by idle backoff)",
            Stability::Timing,
            &[],
        )
    });
}

/// The labels of a `health` key's series.
type Labels = &'static [(&'static str, &'static str)];

const fn family(name: &'static str, stability: Stability, help: &'static str) -> CounterFamily {
    CounterFamily {
        name,
        help,
        stability,
    }
}

const REQUESTS: CounterFamily = family(
    "pdce_serve_requests_total",
    Stability::Deterministic,
    "Requests answered by the serve loop, by response status",
);
const DET: Stability = Stability::Deterministic;

/// The `health` keys `pdce serve --metrics-out` exposes, each with its
/// counter family and the series' labels. Request, cache and WAL counts
/// are deterministic for a fixed request sequence (fsync cadence is a
/// pure function of the append count). Quarantine hits and watchdog
/// timeouts are timing-tainted: wall-budget trips, and therefore
/// strikes, depend on the clock.
#[rustfmt::skip]
const HEALTH_METRICS: [(&str, CounterFamily, Labels); 12] = [
    ("ok", REQUESTS, &[("status", "ok")]),
    ("bad_input", REQUESTS, &[("status", "bad_input")]),
    ("internal", REQUESTS, &[("status", "internal")]),
    ("cache_hits", family("pdce_serve_cache_hits_total", DET, "Requests answered from the persistent result cache"), &[]),
    ("cache_misses", family("pdce_serve_cache_misses_total", DET, "Cacheable requests that had to be computed"), &[]),
    ("wal_appends", family("pdce_serve_wal_appends_total", DET, "Insert/evict records appended to the cache write-ahead log"), &[]),
    ("wal_fsyncs", family("pdce_serve_wal_fsyncs_total", DET, "fdatasync calls issued by the cache write-ahead log"), &[]),
    ("wal_compactions", family("pdce_serve_wal_compactions_total", DET, "Write-ahead log compactions into a snapshot"), &[]),
    ("wal_recovered", family("pdce_serve_wal_recovered_total", DET, "Cache entries recovered by replaying the write-ahead log"), &[]),
    ("wal_discarded", family("pdce_serve_wal_discarded_total", DET, "Log lines discarded at recovery (invalid tail after the longest valid prefix)"), &[]),
    ("quarantine_hits", family("pdce_serve_quarantine_hits_total", Stability::Timing, "Requests short-circuited by the poison-request quarantine"), &[]),
    ("wedged", family("pdce_serve_watchdog_timeouts_total", Stability::Timing, "Requests abandoned past the hard watchdog deadline and answered as identity"), &[]),
];

/// Server configuration: transport-independent knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Worker threads in the server's one supervised pool, shared by
    /// every connection; a batch runs on at most this many. The threads
    /// start with the first batch and live as long as the server. With
    /// no watchdog deadline (`wall_ms` and both watchdog knobs `None`)
    /// each batch runs on a scoped pool instead, inline at 1.
    pub jobs: usize,
    /// Server-wide cap on per-request rounds (requests may go lower).
    pub max_rounds: Option<u64>,
    /// Server-wide cap on per-request solver pops.
    pub max_pops: Option<u64>,
    /// Server-wide cap on per-request wall time, milliseconds. The
    /// default admission-control backstop: one hostile request degrades
    /// down the resilience ladder when it trips instead of stalling the
    /// fleet.
    pub wall_ms: Option<u64>,
    /// Translation-validation vectors per round applied to every
    /// request that does not ask for its own count.
    pub validate: Option<u32>,
    /// Requests longer than this many bytes are rejected with a
    /// `status` 1 error before any parsing happens.
    pub max_request_bytes: usize,
    /// Result-cache byte bound (LRU eviction past it).
    pub cache_bytes: u64,
    /// On-disk home of the result cache; `None` keeps it in memory.
    pub cache_path: Option<PathBuf>,
    /// Master switch for the result cache.
    pub cache: bool,
    /// WAL appends between fsyncs (1 = every append; a crash loses at
    /// most the unfsynced tail, never a synced record).
    pub wal_fsync_every: u64,
    /// Failed attempts before a program hash is quarantined (0
    /// disables the quarantine entirely).
    pub max_strikes: u32,
    /// Soft watchdog deadline per batched request: past it, the
    /// worker's cancellation flag is raised so a cooperative staller
    /// degrades to an in-band answer. `None` derives `2 * wall_ms`.
    pub watchdog_soft_ms: Option<u64>,
    /// Hard watchdog deadline: past it, the wedged worker is abandoned
    /// and the request answered as identity (`"watchdog-timeout"`
    /// rung). `None` derives soft + 1000 ms.
    pub watchdog_hard_ms: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            jobs: 1,
            max_rounds: None,
            max_pops: None,
            wall_ms: Some(2_000),
            validate: None,
            max_request_bytes: 1 << 20,
            cache_bytes: 64 << 20,
            cache_path: None,
            cache: true,
            wal_fsync_every: crate::cache::DEFAULT_FSYNC_EVERY,
            max_strikes: 3,
            watchdog_soft_ms: None,
            watchdog_hard_ms: None,
        }
    }
}

/// Totals of one server's lifetime, rendered by the CLI at exit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    pub requests: u64,
    pub ok: u64,
    pub bad_input: u64,
    pub internal: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Whether a `shutdown` request ended the loop (vs EOF).
    pub shutdown: bool,
}

/// One line's fate after the bounded reader.
enum Incoming {
    Line(String),
    Oversized(usize),
    BadUtf8,
}

/// A rendered response plus its status, the shutdown signal it may
/// carry, and the quarantine verdict and optimizer totals of a
/// *computed* answer (cache hits and short-circuits carry none).
/// Status counts, verdicts and totals are settled by the dispatcher (or
/// `respond_line`), never by the worker itself, so an abandoned zombie
/// worker can never double-count its item.
struct Reply {
    line: String,
    status: Status,
    shutdown: bool,
    verdict: Option<Verdict>,
    run: Option<RunTotals>,
}

impl Reply {
    fn new(line: String, status: Status) -> Reply {
        Reply {
            line,
            status,
            shutdown: false,
            verdict: None,
            run: None,
        }
    }
}

/// What a computed answer means for the quarantine.
#[derive(Clone, Copy)]
struct Verdict {
    key: CacheKey,
    /// Degraded (any non-`none` rung) or escaped: a strike. Clean
    /// answers absolve the hash.
    failed: bool,
}

/// The quarantine file lives next to the cache file.
fn quarantine_path(cache_path: &std::path::Path) -> PathBuf {
    let mut os = cache_path.as_os_str().to_owned();
    os.push(".quarantine");
    PathBuf::from(os)
}

/// The optimization-as-a-service engine.
pub struct Server {
    opts: ServeOptions,
    cache: Mutex<PersistentCache>,
    quarantine: Mutex<Quarantine>,
    requests: AtomicU64,
    ok: AtomicU64,
    bad_input: AtomicU64,
    internal: AtomicU64,
    wedged: AtomicU64,
    /// The optimizer's counts summed over settled computed answers.
    runs: Mutex<RunTotals>,
    stop: AtomicBool,
    /// The supervised workers every batch runs on, one per `jobs`
    /// slot, started by the first batch.
    pool: SupervisedPool,
}

impl Server {
    /// Builds a server, loading the persistent cache and quarantine
    /// set when configured.
    pub fn new(opts: ServeOptions) -> Server {
        let cache = match (&opts.cache_path, opts.cache) {
            (Some(path), true) => {
                PersistentCache::load_with_fsync(path, opts.cache_bytes, opts.wal_fsync_every)
            }
            _ => PersistentCache::in_memory(opts.cache_bytes),
        };
        let quarantine = match &opts.cache_path {
            Some(path) => Quarantine::load(&quarantine_path(path), opts.max_strikes),
            None => Quarantine::in_memory(opts.max_strikes),
        };
        Server {
            pool: SupervisedPool::new(supervisor(&opts)),
            opts,
            cache: Mutex::new(cache),
            quarantine: Mutex::new(quarantine),
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            bad_input: AtomicU64::new(0),
            internal: AtomicU64::new(0),
            wedged: AtomicU64::new(0),
            runs: Mutex::new(RunTotals::default()),
            stop: AtomicBool::new(false),
        }
    }

    /// The configured options.
    pub fn options(&self) -> &ServeOptions {
        &self.opts
    }

    /// What the cache's initial load found (for the CLI banner).
    pub fn cache_load_report(&self) -> crate::cache::LoadReport {
        self.cache.lock().expect("cache lock").load_report
    }

    /// Wall time the cache's log has spent writing so far.
    pub fn wal_time(&self) -> crate::wal::WalTime {
        self.cache.lock().expect("cache lock").wal_time()
    }

    /// Lifetime totals so far.
    pub fn summary(&self) -> ServeSummary {
        let cache = self.cache.lock().expect("cache lock");
        ServeSummary {
            requests: self.requests.load(Ordering::Relaxed),
            ok: self.ok.load(Ordering::Relaxed),
            bad_input: self.bad_input.load(Ordering::Relaxed),
            internal: self.internal.load(Ordering::Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            shutdown: self.stop.load(Ordering::Relaxed),
        }
    }

    /// Persists the result cache (a no-op for in-memory caches).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the atomic rewrite.
    pub fn save_cache(&self) -> std::io::Result<()> {
        self.cache.lock().expect("cache lock").save()
    }

    /// Answers one request line. This is the whole per-request path —
    /// admission control, cache, optimize, render — and is what the
    /// bench harness and the oracle tests drive directly. `None` for
    /// blank lines (which produce no response).
    pub fn respond_line(&self, line: &str) -> Option<String> {
        let reply = self.respond(&Incoming::Line(line.to_string()))?;
        self.settle(&reply);
        Some(reply.line)
    }

    /// Shards `lines` across `min(jobs, lines)` of the pool's workers
    /// (at most [`ServeOptions::jobs`]) and returns the responses in
    /// request order (blank lines yield empty strings).
    pub fn respond_batch(self: &Arc<Server>, jobs: usize, lines: &[String]) -> Vec<String> {
        let incoming: Vec<Incoming> = lines
            .iter()
            .map(|l| self.classify(l.clone(), l.len()))
            .collect();
        self.process_batch(jobs, incoming)
            .into_iter()
            .map(|r| r.map(|r| r.line).unwrap_or_default())
            .collect()
    }

    /// Length-gates a raw line into an [`Incoming`].
    fn classify(&self, line: String, raw_len: usize) -> Incoming {
        if raw_len > self.opts.max_request_bytes {
            Incoming::Oversized(raw_len)
        } else {
            Incoming::Line(line)
        }
    }

    /// Runs one batch through the server's supervised pool with
    /// `min(jobs, batch)` claim loops. Panicking items come back as
    /// structured internal errors instead of poisoning the batch; a
    /// wedged item (hard watchdog deadline) is abandoned and answered as
    /// an identity-rung response while its siblings finish on the
    /// worker that replaces the hostage.
    fn process_batch(self: &Arc<Server>, jobs: usize, batch: Vec<Incoming>) -> Vec<Option<Reply>> {
        serve_metrics::BATCH_ITEMS.observe(batch.len() as u64);
        let items: Vec<Arc<Incoming>> = batch.into_iter().map(Arc::new).collect();
        let originals = items.clone();
        let worker = {
            let server = Arc::clone(self);
            move |_: usize, inc: &Arc<Incoming>| server.respond(inc)
        };
        self.pool
            .map(jobs, items, worker)
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| {
                let reply = match outcome {
                    ItemOutcome::Done(reply) => reply,
                    ItemOutcome::Panicked(p) => Some(Reply::new(
                        render_error(
                            &None,
                            Status::Internal,
                            &format!("internal error: worker panicked: {}", p.message),
                        ),
                        Status::Internal,
                    )),
                    ItemOutcome::Wedged => Some(self.wedged_reply(&originals[i])),
                };
                if let Some(reply) = &reply {
                    self.settle(reply);
                }
                reply
            })
            .collect()
    }

    /// Counts an answer's status, adds a computed answer's optimizer
    /// totals and applies its verdict to the quarantine. Runs on the
    /// dispatcher (exactly once per answered item), so zombie workers
    /// abandoned by the watchdog never settle.
    fn settle(&self, reply: &Reply) {
        self.count(reply.status);
        if let Some(run) = &reply.run {
            self.runs.lock().expect("runs lock").add(run);
        }
        let Some(verdict) = reply.verdict else {
            return;
        };
        let mut quarantine = self.quarantine.lock().expect("quarantine lock");
        if verdict.failed {
            quarantine.strike(verdict.key);
        } else {
            quarantine.absolve(verdict.key);
        }
    }

    /// Synthesizes the answer for a request whose worker blew the hard
    /// watchdog deadline: the program comes back unchanged at the
    /// `"watchdog-timeout"` rung and the hash is struck — a repeat
    /// offender is quarantined before it can hold another batch
    /// hostage.
    fn wedged_reply(&self, incoming: &Incoming) -> Reply {
        self.wedged.fetch_add(1, Ordering::Relaxed);
        if let Incoming::Line(line) = incoming {
            if let Ok(req) = Request::decode(line) {
                if let Ok(parsed) = parse(&req.program) {
                    let canonical = print_program(&parsed);
                    let admitted = self.admit(&req);
                    let options = self.canonical_options(&req, &admitted);
                    let key = CacheKey::compute(&canonical, &options);
                    let payload = identity_payload(canonical, "watchdog-timeout");
                    return Reply {
                        verdict: Some(Verdict { key, failed: true }),
                        ..Reply::new(render_result(&req.id, &payload), Status::Ok)
                    };
                }
                return Reply::new(
                    render_error(
                        &req.id,
                        Status::Internal,
                        "internal error: request abandoned past the hard watchdog deadline",
                    ),
                    Status::Internal,
                );
            }
        }
        Reply::new(
            render_error(
                &None,
                Status::Internal,
                "internal error: request abandoned past the hard watchdog deadline",
            ),
            Status::Internal,
        )
    }

    fn count(&self, status: Status) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match status {
            Status::Ok => &self.ok,
            Status::BadInput => &self.bad_input,
            Status::Internal => &self.internal,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    fn respond(&self, incoming: &Incoming) -> Option<Reply> {
        let started = Instant::now();
        let reply = match incoming {
            Incoming::Oversized(len) => Some(Reply::new(
                render_error(
                    &None,
                    Status::BadInput,
                    &format!(
                        "request of {len} bytes exceeds the {}-byte limit",
                        self.opts.max_request_bytes
                    ),
                ),
                Status::BadInput,
            )),
            Incoming::BadUtf8 => Some(Reply::new(
                render_error(&None, Status::BadInput, "request is not valid UTF-8"),
                Status::BadInput,
            )),
            Incoming::Line(line) => {
                if line.trim().is_empty() {
                    return None;
                }
                Some(self.respond_request(line))
            }
        };
        serve_metrics::REQUEST_WALL.observe(started.elapsed().as_nanos() as u64);
        reply
    }

    fn respond_request(&self, line: &str) -> Reply {
        let req = match Request::decode(line) {
            Ok(req) => req,
            Err(msg) => {
                return Reply::new(
                    render_error(&None, Status::BadInput, &msg),
                    Status::BadInput,
                )
            }
        };
        match req.op {
            Op::Ping => Reply::new(render_pong(&req.id), Status::Ok),
            Op::Health => Reply::new(self.health_reply(&req.id), Status::Ok),
            Op::Shutdown => {
                self.stop.store(true, Ordering::Relaxed);
                Reply {
                    shutdown: true,
                    ..Reply::new(render_shutdown(&req.id), Status::Ok)
                }
            }
            Op::Optimize => self.optimize_request(&req),
        }
    }

    /// Renders the `health` introspection answer: every self-healing
    /// counter as one flat JSON object. The answer counts itself among
    /// `requests` and `ok`, though it is settled only after it renders.
    fn health_reply(&self, id: &Option<String>) -> String {
        render_health(id, &self.health_fields(1))
    }

    /// Renders the server's counters into `snap`: the request, cache,
    /// WAL, quarantine and watchdog counts of the `health` answer, each
    /// as its counter family with zeros included, and the optimizer
    /// families summed over the settled computed answers.
    pub fn render_metrics(&self, snap: &mut Snapshot) {
        let fields = self.health_fields(0);
        for (key, family, labels) in &HEALTH_METRICS {
            let value = fields.iter().find(|(k, _)| k == key).map_or(0, |&(_, v)| v);
            snap.push_counter(family, labels, value);
        }
        self.runs.lock().expect("runs lock").render(snap);
    }

    /// The `health` counters, with `pending` answered-but-unsettled
    /// requests (all `ok`) counted in.
    fn health_fields(&self, pending: u64) -> [(&'static str, u64); 17] {
        let (cache_entries, cache_bytes, cache_hits, cache_misses, wal_stats, wal_errors, report) = {
            let cache = self.cache.lock().expect("cache lock");
            (
                cache.len() as u64,
                cache.bytes(),
                cache.hits,
                cache.misses,
                cache.wal_stats(),
                cache.wal_errors,
                cache.load_report,
            )
        };
        let (wal_appends, wal_fsyncs, wal_compactions) = wal_stats;
        let (quarantine_size, quarantine_hits) = {
            let quarantine = self.quarantine.lock().expect("quarantine lock");
            (quarantine.len() as u64, quarantine.hits)
        };
        [
            ("requests", self.requests.load(Ordering::Relaxed) + pending),
            ("ok", self.ok.load(Ordering::Relaxed) + pending),
            ("bad_input", self.bad_input.load(Ordering::Relaxed)),
            ("internal", self.internal.load(Ordering::Relaxed)),
            ("cache_entries", cache_entries),
            ("cache_bytes", cache_bytes),
            ("cache_hits", cache_hits),
            ("cache_misses", cache_misses),
            ("wal_appends", wal_appends),
            ("wal_fsyncs", wal_fsyncs),
            ("wal_compactions", wal_compactions),
            ("wal_recovered", report.loaded as u64),
            ("wal_discarded", report.skipped as u64),
            ("wal_errors", wal_errors),
            ("quarantine_size", quarantine_size),
            ("quarantine_hits", quarantine_hits),
            ("wedged", self.wedged.load(Ordering::Relaxed)),
        ]
    }

    /// Caps a requested budget by the server-wide bound: a request may
    /// lower a cap, never raise or remove it.
    fn admitted(requested: Option<u64>, cap: Option<u64>) -> Option<u64> {
        match (requested, cap) {
            (Some(r), Some(c)) => Some(r.min(c)),
            (Some(r), None) => Some(r),
            (None, cap) => cap,
        }
    }

    /// The canonical option string keyed alongside the program text.
    /// The trailing `solver=ambient` is a fixed literal left from the
    /// days of selectable solvers: persisted cache files and the
    /// benchmark's replica key on this exact string.
    fn canonical_options(&self, req: &Request, admitted: &AdmittedBudget) -> String {
        let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
        format!(
            "mode={};rounds={};pops={};wall={};validate={};solver=ambient",
            req.mode.label(),
            opt(admitted.rounds),
            opt(admitted.pops),
            opt(admitted.wall_ms),
            opt(admitted.validate.map(u64::from)),
        )
    }

    fn admit(&self, req: &Request) -> AdmittedBudget {
        AdmittedBudget {
            rounds: Self::admitted(req.max_rounds, self.opts.max_rounds),
            pops: Self::admitted(req.max_pops, self.opts.max_pops),
            wall_ms: Self::admitted(req.wall_ms, self.opts.wall_ms),
            validate: req.validate.or(self.opts.validate),
        }
    }

    fn config_for(&self, mode: Mode, admitted: &AdmittedBudget) -> PdceConfig {
        let mut config = match mode {
            Mode::Pde => PdceConfig::pde(),
            Mode::Pfe => PdceConfig::pfe(),
            Mode::Dce => PdceConfig::dce_only(),
            Mode::Fce => PdceConfig::fce_only(),
        };
        if let Some(rounds) = admitted.rounds {
            config = config.truncating_after(rounds as usize);
        }
        let budget = Budget {
            max_rounds: None,
            max_pops: admitted.pops,
            wall_time: admitted.wall_ms.map(Duration::from_millis),
        };
        config = config.with_budget(budget);
        match admitted.validate {
            Some(k) if k > 0 => config.with_validation(k),
            _ => config,
        }
    }

    fn optimize_request(&self, req: &Request) -> Reply {
        let admitted = self.admit(req);
        let options = self.canonical_options(req, &admitted);
        let use_cache = self.opts.cache && !req.no_cache;
        // Fast path: a byte-for-byte repeat of an earlier request is
        // answered straight from the alias memo, before any parsing, by
        // copying the stored answer behind the request's id.
        let raw_key = CacheKey::raw_alias(&req.program, &options);
        if use_cache {
            let mut cache = self.cache.lock().expect("cache lock");
            if let Some(fields) = cache.get_raw_alias_fields(raw_key) {
                return Reply::new(render_stored(&req.id, fields), Status::Ok);
            }
        }
        let mut parsed = match parse(&req.program) {
            Ok(p) => p,
            Err(e) => {
                let msg = if e.line == 0 {
                    format!("program: {}", e.message)
                } else {
                    format!("program:{}:{}: {}", e.line, e.col, e.message)
                };
                return Reply::new(
                    render_error(&req.id, Status::BadInput, &msg),
                    Status::BadInput,
                );
            }
        };
        // Key on the canonical rendering so formatting differences (and
        // reordered request fields) collapse onto one cache entry.
        let canonical = print_program(&parsed);
        let key = CacheKey::compute(&canonical, &options);
        if use_cache {
            let mut cache = self.cache.lock().expect("cache lock");
            cache.record_alias(raw_key, key);
            if let Some(fields) = cache.get_fields(key) {
                return Reply::new(render_stored(&req.id, fields), Status::Ok);
            }
        }
        // Quarantine short-circuit: a hash with a strike record is not
        // allowed near the solvers again — it gets a structured
        // identity answer instead of a fourth chance to take a worker
        // hostage.
        if self.opts.max_strikes > 0 {
            let quarantined = self.quarantine.lock().expect("quarantine lock").check(key);
            if quarantined {
                let payload = identity_payload(canonical, "quarantined");
                return Reply::new(render_result(&req.id, &payload), Status::Ok);
            }
        }
        // One attempt: `optimize_resilient` walks its own ladder and
        // always returns, and the optimizer is deterministic, so a
        // failure that escapes it anyway (our bug, or an injected
        // `serve`-site fault) is answered with the input unchanged.
        let config = self.config_for(req.mode, &admitted);
        let outcome = pdce_trace::sandbox::catch(|| {
            pdce_trace::fault::fire("serve");
            optimize_resilient(&mut parsed, &config)
        });
        let (payload, failed, run) = match outcome {
            Ok(stats) => {
                let payload = ResultPayload {
                    program: print_program(&parsed),
                    rounds: stats.rounds,
                    eliminated: stats.eliminated_assignments,
                    sunk: stats.sunk_assignments,
                    inserted: stats.inserted_assignments,
                    rung: stats.degraded.map_or("none", |m| m.label()).to_string(),
                };
                let run = Some(RunTotals::of(&config, &stats));
                (payload, stats.degraded.is_some(), run)
            }
            Err(_) => (identity_payload(canonical, "identity"), true, None),
        };
        // The answer is escaped once: the same fields serve this
        // response, the cache entry and its log record. Only clean
        // answers are cached: a degraded or escaped answer must not pin
        // a worse answer for every warm replay that follows.
        let stored = StoredResult::render(&payload);
        let line = render_stored(&req.id, stored.fields());
        if use_cache && !failed {
            self.cache
                .lock()
                .expect("cache lock")
                .insert_stored(key, stored);
        }
        Reply {
            verdict: Some(Verdict { key, failed }),
            run,
            ..Reply::new(line, Status::Ok)
        }
    }

    /// Serves one connection: `reader` → batched requests → `writer`.
    /// Returns when the reader hits EOF or a `shutdown` request is
    /// processed; either way every request read before that point has
    /// been answered and flushed (the drain guarantee), and the cache
    /// has been persisted.
    ///
    /// # Errors
    ///
    /// Propagates write/flush failures on the response stream and cache
    /// persistence failures at exit.
    pub fn serve<R, W>(
        self: &Arc<Server>,
        reader: R,
        mut writer: W,
    ) -> std::io::Result<ServeSummary>
    where
        R: Read + Send + 'static,
        W: Write,
    {
        let (tx, rx) = mpsc::channel::<Incoming>();
        let max_line = self.opts.max_request_bytes;
        let reader_server = Arc::clone(self);
        // The reader thread is detached on the shutdown path (it may be
        // parked in a blocking read); it exits on EOF, on a send to a
        // closed channel, or on the stop flag.
        std::thread::spawn(move || {
            let mut reader = std::io::BufReader::new(reader);
            loop {
                if reader_server.stop.load(Ordering::Relaxed) {
                    break;
                }
                match read_bounded_line(&mut reader, max_line, &reader_server.stop) {
                    None => break,
                    Some(incoming) => {
                        if tx.send(incoming).is_err() {
                            break;
                        }
                    }
                }
            }
        });
        let jobs = self.opts.jobs.max(1);
        let max_batch = jobs.saturating_mul(8).max(1);
        let mut stopping = false;
        while !stopping {
            let first = match rx.recv() {
                Ok(first) => first,
                Err(_) => break, // EOF: reader gone, queue drained
            };
            let mut batch = vec![first];
            while batch.len() < max_batch {
                match rx.try_recv() {
                    Ok(next) => batch.push(next),
                    Err(_) => break,
                }
            }
            stopping = self.write_batch(jobs, batch, &mut writer)?;
        }
        // Drain guarantee: everything the reader had already queued
        // before shutdown still gets an answer.
        if stopping {
            let rest: Vec<Incoming> = rx.try_iter().collect();
            if !rest.is_empty() {
                self.write_batch(jobs, rest, &mut writer)?;
            }
        }
        self.save_cache()?;
        Ok(self.summary())
    }

    /// Processes one batch and writes the responses in request order.
    /// Returns whether a shutdown request was in the batch.
    fn write_batch<W: Write>(
        self: &Arc<Server>,
        jobs: usize,
        batch: Vec<Incoming>,
        writer: &mut W,
    ) -> std::io::Result<bool> {
        let mut stopping = false;
        for reply in self.process_batch(jobs, batch).into_iter().flatten() {
            writer.write_all(reply.line.as_bytes())?;
            writer.write_all(b"\n")?;
            stopping |= reply.shutdown;
        }
        writer.flush()?;
        Ok(stopping)
    }

    /// Accept loop over a TCP listener; one dispatcher per connection,
    /// all sharing this server (and its cache). Returns once a
    /// `shutdown` request has been served on any connection and every
    /// connection has drained.
    ///
    /// # Errors
    ///
    /// Propagates bind/accept configuration failures.
    pub fn serve_tcp(
        self: &Arc<Server>,
        listener: std::net::TcpListener,
    ) -> std::io::Result<ServeSummary> {
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| -> std::io::Result<()> {
            let mut idle = IdleBackoff::new();
            loop {
                if self.stop.load(Ordering::Relaxed) {
                    return Ok(());
                }
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        idle.reset();
                        stream.set_nonblocking(false)?;
                        // A finite read timeout lets idle connections
                        // notice a fleet-wide shutdown promptly.
                        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
                        let server = Arc::clone(self);
                        let write_half = stream.try_clone()?;
                        scope.spawn(move || {
                            let _ = server.serve(stream, write_half);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(idle.next());
                    }
                    Err(e) => return Err(e),
                }
            }
        })?;
        self.save_cache()?;
        Ok(self.summary())
    }

    /// Accept loop over a Unix-domain listener (see [`Server::serve_tcp`]).
    ///
    /// # Errors
    ///
    /// Propagates bind/accept configuration failures.
    #[cfg(unix)]
    pub fn serve_unix(
        self: &Arc<Server>,
        listener: std::os::unix::net::UnixListener,
    ) -> std::io::Result<ServeSummary> {
        listener.set_nonblocking(true)?;
        std::thread::scope(|scope| -> std::io::Result<()> {
            let mut idle = IdleBackoff::new();
            loop {
                if self.stop.load(Ordering::Relaxed) {
                    return Ok(());
                }
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        idle.reset();
                        stream.set_nonblocking(false)?;
                        stream.set_read_timeout(Some(Duration::from_millis(50)))?;
                        let server = Arc::clone(self);
                        let write_half = stream.try_clone()?;
                        scope.spawn(move || {
                            let _ = server.serve(stream, write_half);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(idle.next());
                    }
                    Err(e) => return Err(e),
                }
            }
        })?;
        self.save_cache()?;
        Ok(self.summary())
    }
}

/// The server's pool: `opts.jobs` slots under per-item watchdog
/// deadlines. Explicit knobs win; otherwise the soft phase is twice the
/// admitted wall budget (the ladder should have degraded long before)
/// and the hard phase one second past that.
fn supervisor(opts: &ServeOptions) -> SupervisorOptions {
    let soft_ms = opts
        .watchdog_soft_ms
        .or(opts.wall_ms.map(|w| w.saturating_mul(2).max(50)));
    let hard_ms = opts
        .watchdog_hard_ms
        .or(soft_ms.map(|s| s.saturating_add(1_000)));
    SupervisorOptions {
        jobs: opts.jobs,
        soft_deadline: soft_ms.map(Duration::from_millis),
        hard_deadline: hard_ms.map(Duration::from_millis),
    }
}

/// Effective (post-admission) per-request budgets.
struct AdmittedBudget {
    rounds: Option<u64>,
    pops: Option<u64>,
    wall_ms: Option<u64>,
    validate: Option<u32>,
}

/// The unchanged-program answer used by every short-circuit: the
/// quarantine, watchdog timeouts, and escaped failures. Always correct
/// (the identity transformation), always cheap, never cached.
fn identity_payload(program: String, rung: &str) -> ResultPayload {
    ResultPayload {
        program,
        rounds: 0,
        eliminated: 0,
        sunk: 0,
        inserted: 0,
        rung: rung.to_string(),
    }
}

/// Exponential idle backoff for the polling loops (connection reads
/// and transport accepts): consecutive empty polls sleep 1, 2, 4, …
/// 250 ms instead of spinning at a fixed period, so an idle daemon
/// wakes a handful of times per second instead of fifty, while the
/// first byte after an idle stretch still lands within one capped
/// interval. Reset on any progress.
struct IdleBackoff {
    wait: Duration,
}

const IDLE_BACKOFF_START: Duration = Duration::from_millis(1);
const IDLE_BACKOFF_CAP: Duration = Duration::from_millis(250);

impl IdleBackoff {
    fn new() -> IdleBackoff {
        IdleBackoff {
            wait: IDLE_BACKOFF_START,
        }
    }

    fn reset(&mut self) {
        self.wait = IDLE_BACKOFF_START;
    }

    /// The sleep for this empty poll; doubles (to the cap) for the next.
    fn next(&mut self) -> Duration {
        serve_metrics::IDLE_WAKEUPS.inc();
        let wait = self.wait;
        self.wait = (self.wait * 2).min(IDLE_BACKOFF_CAP);
        wait
    }
}

/// Reads one `\n`-terminated line without ever buffering more than
/// `max_bytes + 1` of it: an over-long line is consumed to its newline
/// but surfaced as [`Incoming::Oversized`], so a hostile client cannot
/// balloon the daemon's memory. `None` at EOF (a final unterminated
/// fragment still counts as a line). On a read timeout (socket
/// transports set one so shutdown can propagate across idle
/// connections) the read is retried until `stop` is raised, with
/// exponential idle backoff between empty polls so an idle connection
/// costs a handful of wakeups per second, not a 50 ms-period spin.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    max_bytes: usize,
    stop: &AtomicBool,
) -> Option<Incoming> {
    let mut buf: Vec<u8> = Vec::new();
    let mut seen: usize = 0;
    let mut overflowed = false;
    let mut idle = IdleBackoff::new();
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => {
                // EOF: emit whatever this line accumulated.
                return if seen == 0 {
                    None
                } else {
                    Some(finish_line(buf, seen, overflowed))
                };
            }
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Relaxed) {
                    return None;
                }
                std::thread::sleep(idle.next());
                continue;
            }
            Err(_) => return None,
        };
        idle.reset();
        let (line_part, ate, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(nl) => (&chunk[..nl], nl + 1, true),
            None => (chunk, chunk.len(), false),
        };
        seen += line_part.len();
        if seen > max_bytes {
            overflowed = true;
            buf.clear();
        } else {
            buf.extend_from_slice(line_part);
        }
        reader.consume(ate);
        if done {
            return Some(finish_line(buf, seen, overflowed));
        }
    }
}

fn finish_line(buf: Vec<u8>, seen: usize, overflowed: bool) -> Incoming {
    if overflowed {
        return Incoming::Oversized(seen);
    }
    match String::from_utf8(buf) {
        Ok(mut s) => {
            if s.ends_with('\r') {
                s.pop();
            }
            Incoming::Line(s)
        }
        Err(_) => Incoming::BadUtf8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG1: &str = "prog {
        block s  { goto n1 }
        block n1 { y := a + b; nondet n2 n3 }
        block n2 { y := 4; goto n4 }
        block n3 { out(y); goto n4 }
        block n4 { out(y); goto e }
        block e  { halt }
    }";

    fn server() -> Arc<Server> {
        Arc::new(Server::new(ServeOptions::default()))
    }

    fn request(program: &str) -> String {
        crate::protocol::encode_request(Some("t"), program, Mode::Pde)
    }

    #[test]
    fn serves_an_optimize_request() {
        let s = server();
        let line = s.respond_line(&request(FIG1)).unwrap();
        let doc = pdce_trace::json::parse(&line).unwrap();
        assert_eq!(doc.get("status").unwrap().as_num(), Some(0.0));
        let optimized = doc.get("program").unwrap().as_str().unwrap();
        let reparsed = pdce_ir::parser::parse(optimized).unwrap();
        let n1 = reparsed.block_by_name("n1").unwrap();
        assert!(reparsed.block(n1).stmts.is_empty(), "assignment was sunk");
        assert_eq!(doc.get("eliminated").unwrap().as_num(), Some(1.0));
        assert_eq!(doc.get("rung").unwrap().as_str(), Some("none"));
    }

    #[test]
    fn warm_answers_are_byte_identical_and_hit_the_cache() {
        let s = server();
        let cold = s.respond_line(&request(FIG1)).unwrap();
        let warm = s.respond_line(&request(FIG1)).unwrap();
        assert_eq!(cold, warm);
        let summary = s.summary();
        assert_eq!(summary.cache_hits, 1);
        assert_eq!(summary.cache_misses, 1);
        // A formatting-only change of the program still hits.
        let reformatted = FIG1.replace("  ", " ");
        let warm2 = s.respond_line(&request(&reformatted)).unwrap();
        assert_eq!(cold, warm2);
        assert_eq!(s.summary().cache_hits, 2);
    }

    #[test]
    fn no_cache_requests_bypass_the_cache() {
        let s = server();
        let line = request(FIG1).replace("\"mode\"", "\"no_cache\":true,\"mode\"");
        s.respond_line(&line).unwrap();
        s.respond_line(&line).unwrap();
        let summary = s.summary();
        assert_eq!(summary.cache_hits + summary.cache_misses, 0);
    }

    #[test]
    fn parse_errors_are_status_1_with_position() {
        let s = server();
        let line = s.respond_line(&request("prog { block x {")).unwrap();
        let doc = pdce_trace::json::parse(&line).unwrap();
        assert_eq!(doc.get("status").unwrap().as_num(), Some(1.0));
        let msg = doc.get("error").unwrap().as_str().unwrap();
        assert!(msg.starts_with("program:"), "positioned: {msg}");
    }

    #[test]
    fn serve_loop_answers_in_order_and_drains_at_eof() {
        let s = server();
        let input = format!(
            "{}\n{}\nnot json\n{}\n",
            request(FIG1),
            r#"{"op":"ping","id":"p"}"#,
            request("prog { block e { halt } }"),
        );
        let mut out = Vec::new();
        let summary = s
            .serve(std::io::Cursor::new(input.into_bytes()), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "one response per request:\n{text}");
        assert!(lines[1].contains("\"pong\":true"));
        assert!(lines[2].contains("\"status\":1"));
        assert_eq!(summary.requests, 4);
        assert_eq!(summary.ok, 3);
        assert_eq!(summary.bad_input, 1);
        assert!(!summary.shutdown);
    }

    #[test]
    fn shutdown_request_stops_the_loop_but_answers_everything_read() {
        let s = server();
        let input = format!(
            "{}\n{}\n{}\n",
            request(FIG1),
            r#"{"op":"shutdown","id":"bye"}"#,
            r#"{"op":"ping","id":"late"}"#,
        );
        let mut out = Vec::new();
        let summary = s
            .serve(std::io::Cursor::new(input.into_bytes()), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(summary.shutdown);
        assert!(text.contains("\"shutdown\":true"));
        // The late ping was already queued when shutdown processed, so
        // the drain answers it (never silently drops read requests).
        assert!(text.contains("\"id\":\"late\""));
    }

    #[test]
    fn oversized_lines_are_rejected_with_bounded_memory() {
        let opts = ServeOptions {
            max_request_bytes: 256,
            ..ServeOptions::default()
        };
        let s = Arc::new(Server::new(opts));
        let big = format!(
            "{{\"program\":\"{}\"}}\n{}\n",
            "x".repeat(4096),
            r#"{"op":"ping"}"#
        );
        let mut out = Vec::new();
        s.serve(std::io::Cursor::new(big.into_bytes()), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"status\":1"));
        assert!(lines[0].contains("exceeds"));
        assert!(lines[1].contains("pong"), "daemon kept serving");
    }

    #[test]
    fn admission_clamps_request_budgets_to_server_caps() {
        assert_eq!(Server::admitted(Some(5), Some(3)), Some(3));
        assert_eq!(Server::admitted(Some(2), Some(3)), Some(2));
        assert_eq!(Server::admitted(None, Some(3)), Some(3));
        assert_eq!(Server::admitted(Some(9), None), Some(9));
        assert_eq!(Server::admitted(None, None), None);
    }

    /// A request that deterministically degrades down the full ladder:
    /// a zero pop budget fails every solving rung, so the answer comes
    /// from the identity rung with a failure verdict.
    fn poison_request(program: &str) -> String {
        let mut escaped = String::new();
        pdce_trace::json::write_escaped(&mut escaped, program);
        format!("{{\"id\":\"p\",\"program\":{escaped},\"max_pops\":0,\"no_cache\":true}}")
    }

    fn rung_of(line: &str) -> String {
        pdce_trace::json::parse(line)
            .unwrap()
            .get("rung")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn health_op_reports_the_self_healing_counters() {
        let s = server();
        s.respond_line(&request(FIG1)).unwrap();
        let line = s.respond_line(r#"{"op":"health","id":"h"}"#).unwrap();
        let doc = pdce_trace::json::parse(&line).unwrap();
        assert_eq!(doc.get("status").unwrap().as_num(), Some(0.0));
        assert_eq!(doc.get("health").unwrap().as_bool(), Some(true));
        // The health request itself is counted before it renders.
        assert_eq!(doc.get("requests").unwrap().as_num(), Some(2.0));
        for key in [
            "cache_entries",
            "wal_appends",
            "wal_recovered",
            "quarantine_size",
            "quarantine_hits",
            "wedged",
        ] {
            assert!(
                doc.get(key).is_some(),
                "health field `{key}` missing: {line}"
            );
        }
        for key in ["breaker_state", "breaker_trips", "retries"] {
            assert!(
                doc.get(key).is_none(),
                "removed health field `{key}` present: {line}"
            );
        }
    }

    #[test]
    fn repeated_failures_quarantine_the_program_hash() {
        let s = Arc::new(Server::new(ServeOptions {
            max_strikes: 2,
            ..ServeOptions::default()
        }));
        let line = poison_request(FIG1);
        for i in 0..2 {
            let response = s.respond_line(&line).unwrap();
            assert_eq!(
                rung_of(&response),
                "identity",
                "strike {i} still runs the ladder"
            );
        }
        // Third offense: short-circuited by the quarantine, never near
        // the solvers again.
        let response = s.respond_line(&line).unwrap();
        assert_eq!(rung_of(&response), "quarantined");
        let health = s.respond_line(r#"{"op":"health"}"#).unwrap();
        let doc = pdce_trace::json::parse(&health).unwrap();
        assert_eq!(doc.get("quarantine_size").unwrap().as_num(), Some(1.0));
        assert_eq!(doc.get("quarantine_hits").unwrap().as_num(), Some(1.0));
        // A different (clean) program is unaffected.
        let clean = s
            .respond_line(&request("prog { block e { halt } }"))
            .unwrap();
        assert_eq!(rung_of(&clean), "none");
    }

    #[test]
    fn persistent_sink_panics_answer_elimination_only_and_shed_nothing() {
        let s = Arc::new(Server::new(ServeOptions {
            max_strikes: 0, // no quarantine: every request is computed
            ..ServeOptions::default()
        }));
        // A failing stretch of distinct requests never sheds the later
        // ones to identity: each one runs the optimizer's own ladder.
        pdce_trace::fault::with_faults("panic:sink:*", || {
            for i in 0..20 {
                let program = format!(
                    "prog {{ block s {{ v{i} := {i}; out(v{i}); goto e }} block e {{ halt }} }}"
                );
                let response = s.respond_line(&request(&program)).unwrap();
                assert_eq!(status_of_line(&response), 0.0, "request {i}");
                assert_eq!(rung_of(&response), "elimination-only", "request {i}");
            }
        });
    }

    fn quarantine_size(s: &Server) -> f64 {
        let health = s.respond_line(r#"{"op":"health"}"#).unwrap();
        pdce_trace::json::parse(&health)
            .unwrap()
            .get("quarantine_size")
            .unwrap()
            .as_num()
            .unwrap()
    }

    #[test]
    fn escaped_failure_answers_identity_and_strikes() {
        let s = Arc::new(Server::new(ServeOptions {
            max_strikes: 2,
            ..ServeOptions::default()
        }));
        // The one attempt panics at the serve site, outside the
        // optimizer's own ladder: the input comes back unchanged.
        let response = pdce_trace::fault::with_faults("panic:serve:1", || {
            s.respond_line(&request(FIG1)).unwrap()
        });
        assert_eq!(status_of_line(&response), 0.0);
        assert_eq!(rung_of(&response), "identity");
        let doc = pdce_trace::json::parse(&response).unwrap();
        let canonical = print_program(&parse(FIG1).unwrap());
        assert_eq!(
            doc.get("program").unwrap().as_str(),
            Some(canonical.as_str())
        );
        assert_eq!(doc.get("rounds").unwrap().as_num(), Some(0.0));
        // One strike: below the threshold of two, so not quarantined,
        // and a second escape is what quarantines the hash.
        assert_eq!(quarantine_size(&s), 0.0);
        let again = pdce_trace::fault::with_faults("panic:serve:1", || {
            s.respond_line(&request(FIG1)).unwrap()
        });
        assert_eq!(rung_of(&again), "identity");
        assert_eq!(quarantine_size(&s), 1.0);
    }

    fn status_of_line(line: &str) -> f64 {
        pdce_trace::json::parse(line)
            .unwrap()
            .get("status")
            .unwrap()
            .as_num()
            .unwrap()
    }

    #[test]
    fn escaped_failures_are_not_cached() {
        let s = server();
        // The escaped answer is the unchanged input; caching it would
        // pin the worse answer for every warm replay.
        let escaped = pdce_trace::fault::with_faults("panic:serve:1", || {
            s.respond_line(&request(FIG1)).unwrap()
        });
        let clean = s.respond_line(&request(FIG1)).unwrap();
        assert_eq!(status_of_line(&escaped), 0.0);
        assert_eq!(rung_of(&escaped), "identity");
        assert_eq!(status_of_line(&clean), 0.0);
        assert_eq!(rung_of(&clean), "none", "the repeat was computed");
        assert_eq!(s.summary().cache_hits, 0, "escaped answer was cached");
    }

    #[test]
    fn idle_backoff_doubles_to_a_cap_and_resets() {
        let mut b = IdleBackoff::new();
        let mut total = Duration::ZERO;
        let mut wakeups = 0u32;
        while total < Duration::from_secs(10) {
            total += b.next();
            wakeups += 1;
        }
        // The old fixed 20 ms poll would wake 500 times over the same
        // stretch; the capped exponential schedule wakes ~47 times.
        assert!(wakeups < 60, "idle schedule woke {wakeups} times in 10 s");
        assert_eq!(b.next(), IDLE_BACKOFF_CAP, "schedule saturates at the cap");
        b.reset();
        assert_eq!(b.next(), IDLE_BACKOFF_START, "progress resets the schedule");
    }

    #[test]
    fn bounded_reader_handles_split_and_unterminated_lines() {
        let stop = AtomicBool::new(false);
        let mut r =
            std::io::BufReader::with_capacity(4, std::io::Cursor::new(b"abcdef\ngh".to_vec()));
        let Some(Incoming::Line(a)) = read_bounded_line(&mut r, 64, &stop) else {
            panic!("line expected");
        };
        assert_eq!(a, "abcdef");
        let Some(Incoming::Line(b)) = read_bounded_line(&mut r, 64, &stop) else {
            panic!("unterminated tail expected");
        };
        assert_eq!(b, "gh");
        assert!(read_bounded_line(&mut r, 64, &stop).is_none());
    }
}
