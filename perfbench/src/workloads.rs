//! The workloads, each as an untraced end-to-end run and a traced run.
//!
//! * `opt_large`: the `pdce opt` path in-process on large programs.
//! * `serve_cold`: the real `pdce serve` binary over stdio, every
//!   measured request a first sight.
//! * `serve_mixed`: the same binary on repeat-heavy traffic over a
//!   prefilled working set larger than the cache bound.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pdce_core::driver::{optimize_resilient, PdceStats};
use pdce_ir::parser::parse;
use pdce_ir::printer::print_program;

use crate::check::{check_pair, Effort};
use crate::client::ServerProcess;
use crate::corpus::{self, push_json_str, Kind, Mode, ServeStream};
use crate::measure::{
    cpu_ms, fnv64, host_ticks, median, metric, peak_rss_mb, quantile, reset_peak_rss, steal_share,
    Metric, Outcome,
};
use crate::replica::{optimize_traced, serve_options, ServeReplica};
use crate::spans;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    OptLarge,
    ServeCold,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::OptLarge,
        Workload::ServeCold,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::OptLarge => "opt_large",
            Workload::ServeCold => "serve_cold",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything one run needs.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `pdce` binary the serve workloads start.
    pub pdce_bin: PathBuf,
    /// A private, empty directory for caches; removed by the caller.
    pub tmp: PathBuf,
    /// Where the traced run writes its span file.
    pub out_dir: PathBuf,
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Ops whose programs feed the effort ratios: a fixed prefix of the
/// op order, so the ratios do not depend on how many ops the window
/// reached.
const RATIO_OPS: usize = 512;
/// Disjoint warm-up requests before serve_cold's window.
pub const COLD_WARMUP: usize = 200;
/// Stream lengths per second of window: twice the fastest rate measured
/// with `run.py` (serve_cold ~700, serve_mixed ~3,000 requests/s; see
/// README.md). A server fast enough to exhaust the stream ends the
/// window early; throughput stays ops per second.
const COLD_PER_SECOND: f64 = 1_400.0;
const MIXED_PER_SECOND: f64 = 6_000.0;
/// serve_mixed's working set.
const WORKING_SET: usize = 400;
/// serve_mixed's `--cache-bytes` in percent of what the working set's
/// results cost the cache, so first sights make the LRU evict and the
/// WAL compact inside the window.
const CACHE_PERCENT: u64 = 95;

const HEALTH: &str = "{\"op\":\"health\",\"id\":\"health\"}";

/// Span names that are layers, with their per-layer metric names.
/// `transport` has no span: it is end-to-end latency minus server time.
const LAYERS: [(&str, &str); 18] = [
    ("dispatch", "dispatch.ms_per_op"),
    ("decode", "decode.ms_per_op"),
    ("cache_get", "cache_get.ms_per_op"),
    ("parse", "parse.ms_per_op"),
    ("canon", "canon.ms_per_op"),
    ("ladder", "ladder.ms_per_op"),
    ("split", "split.ms_per_op"),
    ("cfg", "cfg.ms_per_op"),
    ("du", "du.ms_per_op"),
    ("dead", "dead.ms_per_op"),
    ("faint", "faint.ms_per_op"),
    ("elim", "elim.ms_per_op"),
    ("patterns", "patterns.ms_per_op"),
    ("sink", "sink.ms_per_op"),
    ("tv", "tv.ms_per_op"),
    ("print", "print.ms_per_op"),
    ("render", "render.ms_per_op"),
    ("cache_insert", "cache_insert.ms_per_op"),
];

/// Runs one workload.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    match (args.workload, args.trace) {
        (Workload::OptLarge, false) => opt_large(args),
        (Workload::OptLarge, true) => opt_large_traced(args),
        (w, false) => serve_e2e(args, w),
        (w, true) => serve_traced(args, w),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `pdce opt` path on one program: parse, `optimize_resilient`,
/// print — the calls `optimize_one_file` makes.
fn opt_path(text: &str, mode: Mode) -> Result<(String, PdceStats), String> {
    let mut prog = parse(text).map_err(|e| format!("parse: {e}"))?;
    let stats = optimize_resilient(&mut prog, &mode.config());
    Ok((print_program(&prog), stats))
}

/// Seed of the check vectors for one program: a function of its text.
fn vector_seed(text: &str) -> u64 {
    fnv64(text.as_bytes())
}

/// Checks `(input, output)` pairs on two threads.
fn check_all(pairs: &[(&str, &str)]) -> Vec<Result<Effort, String>> {
    let check = |(input, output): (&str, &str)| -> Result<Effort, String> {
        let a = parse(input).map_err(|e| format!("input: {e}"))?;
        let b = parse(output).map_err(|e| format!("output: {e}"))?;
        check_pair(&a, &b, vector_seed(input))
    };
    par_map(pairs, |&p| check(p))
}

/// Maps `f` over `items` on two threads, in order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mid = items.len().div_ceil(2);
    let (left, right) = items.split_at(mid);
    std::thread::scope(|s| {
        let other = s.spawn(|| right.iter().map(&f).collect::<Vec<R>>());
        let mut out: Vec<R> = left.iter().map(&f).collect();
        out.extend(other.join().expect("checker thread panicked"));
        out
    })
}

/// The eight end-to-end metrics from one window.
struct Window {
    latencies_ms: Vec<f64>,
    elapsed: Duration,
    cpu_ms: f64,
    peak_rss_mb: f64,
    setup_s: Vec<f64>,
    effort: Effort,
}

fn e2e_metrics(w: Window) -> Vec<Metric> {
    let mut lat = w.latencies_ms;
    let n = lat.len().max(1) as f64;
    lat.sort_by(f64::total_cmp);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        metric("throughput_ops_per_s", "ops/s", n / w.elapsed.as_secs_f64()),
        metric("latency_p50_ms", "ms", quantile(&lat, 0.50)),
        metric("latency_p99_ms", "ms", quantile(&lat, 0.99)),
        metric("cpu_ms_per_op", "ms", w.cpu_ms / n),
        metric("peak_rss_mb", "MiB", w.peak_rss_mb),
        metric("setup_s", "s", median(&w.setup_s)),
        metric(
            "dyn_assign_ratio",
            "ratio",
            ratio(w.effort.assigns_after, w.effort.assigns_before),
        ),
        metric(
            "static_stmt_ratio",
            "ratio",
            ratio(w.effort.stmts_after, w.effort.stmts_before),
        ),
    ]
}

fn window_note(
    workload: Workload,
    ops: usize,
    elapsed: Duration,
    steal: f64,
    setup_s: &[f64],
) -> String {
    format!(
        "{}: {ops} timed op(s) in {:.2} s; p99 rests on {} sample(s) beyond it; \
         host steal {:.1}% of CPU time in the window; set-ups {:.3?} s",
        workload.name(),
        elapsed.as_secs_f64(),
        ops / 100,
        steal * 100.0,
        setup_s
    )
}

// ---------------------------------------------------------------- opt_large

/// One timed set-up: the opt path on the corpus's disjoint warm-up slice.
fn opt_warmup(corpus: &corpus::OptCorpus) -> Result<(), String> {
    for program in &corpus.warmup {
        for mode in [Mode::Pde, Mode::Pfe] {
            opt_path(program, mode)?;
        }
    }
    Ok(())
}

fn opt_large(args: &RunArgs) -> Result<Outcome, String> {
    let corpus = corpus::opt_corpus(args.seed);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        opt_warmup(&corpus)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let window = Duration::from_secs_f64(args.seconds);

    // Outputs go to a spool file, not memory, so the window's peak RSS
    // is the corpus plus the optimizer, not a growing pile of results.
    let spool_path = args.tmp.join("outputs");
    let io = |e: std::io::Error| format!("{}: {e}", spool_path.display());
    let mut spool = BufWriter::new(File::create(&spool_path).map_err(io)?);
    let mut latencies_ms = Vec::with_capacity(corpus.ops.len());
    let mut results = Vec::with_capacity(corpus.ops.len());
    reset_peak_rss();
    let host0 = host_ticks();
    let cpu0 = cpu_ms(None);
    let start = Instant::now();
    for &(i, mode) in &corpus.ops {
        if start.elapsed() >= window {
            break;
        }
        let t = Instant::now();
        let r = opt_path(&corpus.programs[i], mode);
        latencies_ms.push(ms(t.elapsed()));
        // Program texts hold no NUL: one separates the outputs.
        if let Ok((output, _)) = &r {
            spool.write_all(output.as_bytes()).map_err(io)?;
        }
        spool.write_all(b"\0").map_err(io)?;
        results.push(r.map(|(_, stats)| stats));
    }
    let elapsed = start.elapsed();
    let cpu = cpu_ms(None) - cpu0;
    let steal = steal_share(host0, host_ticks());
    let rss = peak_rss_mb(None);
    drop(spool);
    let outputs = std::fs::read_to_string(&spool_path).map_err(io)?;

    // Check every op: a clean rung and the same observable behaviour.
    let pairs: Vec<(&str, &str)> = outputs
        .split_terminator('\0')
        .zip(&corpus.ops)
        .map(|(output, &(i, _))| (corpus.programs[i].as_str(), output))
        .collect();
    let checks = check_all(&pairs);
    let mut outcome = Outcome::default();
    let mut effort = Effort::default();
    for (k, (r, c)) in results.iter().zip(&checks).enumerate() {
        let verdict = match (r, c) {
            (Err(e), _) | (_, Err(e)) => Err(e.clone()),
            (Ok(stats), Ok(_)) if stats.degraded.is_some() => Err("degraded rung".to_string()),
            (Ok(_), Ok(e)) => Ok(e),
        };
        match verdict {
            Ok(e) if k < RATIO_OPS => effort.add(e),
            Ok(_) => {}
            Err(e) => {
                outcome.fail(format!("op {k} failed: {e}"));
                latencies_ms[k] = f64::INFINITY;
            }
        }
    }
    outcome.attempted = results.len() as u64;
    outcome.correct = outcome.failed == 0;
    outcome.notes.push(window_note(
        args.workload,
        results.len(),
        elapsed,
        steal,
        &setup_s,
    ));
    outcome.metrics = e2e_metrics(Window {
        latencies_ms,
        elapsed,
        cpu_ms: cpu,
        peak_rss_mb: rss,
        setup_s,
        effort,
    });
    Ok(outcome)
}

// ---------------------------------------------------------------- serve e2e

/// What the opt path makes of one program: the reference every serve
/// answer is compared with.
struct Expected {
    output: String,
    stats: PdceStats,
    effort: Effort,
}

/// Runs the opt path on `text` and checks the result against its input.
fn expect(text: &str, mode: Mode) -> Result<Expected, String> {
    let (output, stats) = opt_path(text, mode)?;
    if stats.degraded.is_some() {
        return Err("the opt path degraded".to_string());
    }
    let a = parse(text).map_err(|e| e.to_string())?;
    let b = parse(&output).map_err(|e| e.to_string())?;
    let effort = check_pair(&a, &b, vector_seed(text))?;
    Ok(Expected {
        output,
        stats,
        effort,
    })
}

/// A serve workload's stream, the server's `--cache-bytes`, and the
/// expected answers to the warm-up requests.
struct ServePlan {
    stream: ServeStream,
    cache_bytes: u64,
    warm_expected: Vec<Result<Expected, String>>,
}

/// Builds the serve workload's inputs for `seconds` of window. Not part
/// of `setup_s`, which times only what the server does: the stream and
/// the expected warm-up answers are the benchmark's own preparation.
fn serve_plan(workload: Workload, seed: u64, seconds: f64) -> ServePlan {
    let stream = match workload {
        Workload::ServeCold => {
            corpus::cold_stream(seed, COLD_WARMUP, (seconds * COLD_PER_SECOND) as usize)
        }
        _ => corpus::mixed_stream(seed, WORKING_SET, (seconds * MIXED_PER_SECOND) as usize),
    };
    let warm_expected = par_map(&stream.warmup, |send| {
        expect(&stream.programs[send.program], send.mode)
    });
    let cache_bytes = match workload {
        Workload::ServeCold => pdce_serve::ServeOptions::default().cache_bytes,
        // What `ResultPayload::cost_bytes` charges per entry: the result
        // text, its rung ("none") and 96 bytes.
        _ => {
            let cost: u64 = warm_expected
                .iter()
                .flatten()
                .map(|e| e.output.len() as u64 + 4 + 96)
                .sum();
            cost * CACHE_PERCENT / 100
        }
    };
    ServePlan {
        stream,
        cache_bytes,
        warm_expected,
    }
}

/// `"status":0,...}`: a response without its leading id field.
fn tail_after_id(line: &str) -> &str {
    line.find(",\"status\"").map_or(line, |k| &line[k..])
}

/// The response a correct server gives for `id` when the opt path
/// turned the request's program into `output` with `stats`.
fn expected_response(id: &str, output: &str, stats: &PdceStats) -> String {
    let mut out = String::with_capacity(output.len() + 160);
    out.push_str("{\"id\":");
    push_json_str(&mut out, id);
    out.push_str(",\"status\":0,\"program\":");
    push_json_str(&mut out, output);
    out.push_str(&format!(
        ",\"rounds\":{},\"eliminated\":{},\"sunk\":{},\"inserted\":{},\"rung\":\"none\"}}",
        stats.rounds,
        stats.eliminated_assignments,
        stats.sunk_assignments,
        stats.inserted_assignments
    ));
    out
}

/// A numeric field of a `health` answer.
fn health_field(line: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    line.find(&pat)
        .map(|k| &line[k + pat.len()..])
        .and_then(|rest| {
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].trim().parse::<f64>().ok()
        })
        .unwrap_or(0.0)
}

/// Health counter deltas across a window.
#[derive(Debug, Clone, Default)]
pub struct HealthDelta(pub BTreeMap<&'static str, f64>);

impl HealthDelta {
    fn between(before: &str, after: &str) -> HealthDelta {
        let keys = [
            "requests",
            "cache_hits",
            "cache_misses",
            "wal_appends",
            "wal_fsyncs",
            "wal_compactions",
        ];
        HealthDelta(
            keys.into_iter()
                .map(|k| (k, health_field(after, k) - health_field(before, k)))
                .collect(),
        )
    }

    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }
}

/// What the client saw in one window.
struct ServeWindow {
    latencies_ms: Vec<f64>,
    /// `(measured index, response)` of first sights.
    firsts: Vec<(usize, String)>,
    /// Per measured op: for repeats, whether the answer carried its id
    /// and equalled the program's first answer; `true` for first sights.
    repeat_ok: Vec<bool>,
    elapsed: Duration,
    cpu_ms: f64,
    peak_rss_mb: f64,
    steal: f64,
    health: HealthDelta,
}

/// One timed set-up: spawns the server in `dir` and warms it up;
/// returns it with the warm-up answers.
fn serve_setup(
    args: &RunArgs,
    plan: &ServePlan,
    dir: &Path,
) -> Result<(ServerProcess, Vec<String>), String> {
    let mut server =
        ServerProcess::spawn(&args.pdce_bin, &dir.join("cache.wal"), plan.cache_bytes)?;
    let mut answers = Vec::with_capacity(plan.stream.warmup.len());
    for (k, send) in plan.stream.warmup.iter().enumerate() {
        let line = plan.stream.line(send, &format!("w{k}"));
        answers.push(server.round_trip(&line)?.to_string());
    }
    Ok((server, answers))
}

fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Drives the measured stream through `server` until `window` has
/// passed or the stream ends.
fn drive(
    server: &mut ServerProcess,
    stream: &ServeStream,
    first_tail: &[Option<String>],
    window: Duration,
) -> Result<ServeWindow, String> {
    let before = server.round_trip(HEALTH)?.to_string();
    let pid = server.pid();
    let mut latencies_ms = Vec::new();
    let mut firsts = Vec::new();
    let mut repeat_ok = Vec::new();
    let host0 = host_ticks();
    let cpu0 = cpu_ms(Some(pid));
    let start = Instant::now();
    for (j, send) in stream.measured.iter().enumerate() {
        if start.elapsed() >= window {
            break;
        }
        let id = format!("m{j}");
        let line = stream.line(send, &id);
        let t = Instant::now();
        let response = server.round_trip(&line)?;
        latencies_ms.push(ms(t.elapsed()));
        if send.kind == Kind::First {
            firsts.push((j, response.to_string()));
            repeat_ok.push(true);
        } else {
            let prefix_ok = response
                .strip_prefix("{\"id\":\"")
                .and_then(|r| r.strip_prefix(id.as_str()))
                .is_some_and(|r| r.starts_with("\",\"status\""));
            let same = first_tail[send.program]
                .as_deref()
                .is_some_and(|t| t == tail_after_id(response));
            repeat_ok.push(prefix_ok && same);
        }
    }
    let elapsed = start.elapsed();
    let cpu = cpu_ms(Some(pid)) - cpu0;
    let steal = steal_share(host0, host_ticks());
    let rss = peak_rss_mb(Some(pid));
    let after = server.round_trip(HEALTH)?.to_string();
    Ok(ServeWindow {
        latencies_ms,
        firsts,
        repeat_ok,
        elapsed,
        cpu_ms: cpu,
        peak_rss_mb: rss,
        steal,
        health: HealthDelta::between(&before, &after),
    })
}

fn serve_e2e(args: &RunArgs, workload: Workload) -> Result<Outcome, String> {
    let plan = serve_plan(workload, args.seed, args.seconds);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut live: Option<(ServerProcess, Vec<String>)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((server, _)) = live.take() {
            server.shutdown()?;
        }
        let dir = fresh_dir(&args.tmp, &format!("setup{rep}"))?;
        let t = Instant::now();
        let (server, warm) = serve_setup(args, &plan, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        live = Some((server, warm));
    }
    let (mut server, warm) = live.expect("at least one set-up");
    let stream = &plan.stream;
    let mut first_tail: Vec<Option<String>> = vec![None; stream.programs.len()];
    for (send, answer) in stream.warmup.iter().zip(&warm) {
        first_tail[send.program] = Some(tail_after_id(answer).to_string());
    }
    let w = drive(
        &mut server,
        stream,
        &first_tail,
        Duration::from_secs_f64(args.seconds),
    )?;
    server.shutdown()?;

    // Expected answers of every computed request, from the opt path.
    let ids: Vec<String> = (0..stream.warmup.len())
        .map(|k| format!("w{k}"))
        .chain(w.firsts.iter().map(|(j, _)| format!("m{j}")))
        .collect();
    let computed: Vec<&corpus::Send> = stream
        .warmup
        .iter()
        .chain(w.firsts.iter().map(|(j, _)| &stream.measured[*j]))
        .collect();
    let mut expected = plan.warm_expected;
    expected.extend(par_map(&computed[stream.warmup.len()..], |send| {
        expect(&stream.programs[send.program], send.mode)
    }));
    let answers: Vec<&str> = warm
        .iter()
        .map(String::as_str)
        .chain(w.firsts.iter().map(|(_, r)| r.as_str()))
        .collect();

    let mut outcome = Outcome::default();
    let mut program_ok: Vec<bool> = vec![true; stream.programs.len()];
    let mut measured_ok = w.repeat_ok.clone();
    let mut effort = Effort::default();
    let mut effort_ops = 0usize;
    let warm_n = stream.warmup.len();
    for (k, (send, verdict)) in computed.iter().zip(&expected).enumerate() {
        let answer = answers[k];
        let ok = match verdict {
            Ok(e) if expected_response(&ids[k], &e.output, &e.stats) == answer => {
                // Ratios over a fixed prefix: the working set for
                // serve_mixed, the first measured requests for serve_cold.
                let counts = match workload {
                    Workload::ServeMixed => k < warm_n,
                    _ => k >= warm_n && effort_ops < RATIO_OPS,
                };
                if counts {
                    effort.add(&e.effort);
                    effort_ops += 1;
                }
                true
            }
            Ok(_) => {
                outcome.fail(format!("answer {k} differs from the opt path: {answer}"));
                false
            }
            Err(e) => {
                outcome.fail(format!("answer {k} failed its check: {e}"));
                false
            }
        };
        if !ok {
            program_ok[send.program] = false;
            if k >= warm_n {
                let (j, _) = w.firsts[k - warm_n];
                measured_ok[j] = false;
            }
        }
    }
    let mut latencies_ms = w.latencies_ms;
    for (j, send) in stream.measured.iter().enumerate().take(latencies_ms.len()) {
        let ok = measured_ok[j] && program_ok[send.program];
        if !ok {
            latencies_ms[j] = f64::INFINITY;
            if send.kind != Kind::First {
                outcome.fail(format!("request m{j} differs from its first answer"));
            }
        }
    }
    outcome.attempted = (warm_n + latencies_ms.len()) as u64;
    outcome.correct = outcome.failed == 0;
    outcome.notes.push(window_note(
        workload,
        latencies_ms.len(),
        w.elapsed,
        w.steal,
        &setup_s,
    ));
    outcome.notes.push(format!(
        "health over the window: {} request(s), {} hit(s), {} miss(es), {} wal append(s), {} compaction(s)",
        w.health.get("requests"),
        w.health.get("cache_hits"),
        w.health.get("cache_misses"),
        w.health.get("wal_appends"),
        w.health.get("wal_compactions"),
    ));
    outcome.health = Some(w.health);
    outcome.metrics = e2e_metrics(Window {
        latencies_ms,
        elapsed: w.elapsed,
        cpu_ms: w.cpu_ms,
        peak_rss_mb: w.peak_rss_mb,
        setup_s,
        effort,
    });
    Ok(outcome)
}

// ---------------------------------------------------------------- traced

/// Per-op accumulation of `PdceStats` counts.
#[derive(Debug, Default)]
struct StatsSum {
    rounds: u64,
    passes: u64,
    tv_checks: u64,
    cache_hits: u64,
    cache_lookups: u64,
    pops: u64,
    word_ops: u64,
    edge_visits: u64,
}

impl StatsSum {
    fn add(&mut self, s: &PdceStats) {
        self.rounds += s.rounds;
        self.passes += s.elimination_passes;
        self.tv_checks += s.tv_checks;
        self.cache_hits += s.cache.hits();
        self.cache_lookups += s.cache.hits() + s.cache.misses();
        self.pops += s.solver.pops();
        self.word_ops += s.solver.word_ops;
        self.edge_visits += s.solver.sparse_edge_visits;
    }
}

/// Inputs of the per-layer report.
struct TraceReport {
    ops: usize,
    spans: Vec<spans::SpanRec>,
    /// Untraced in-process ms per op of the real call.
    real_ms: f64,
    /// The same for the traced replica.
    replica_ms: f64,
    server_ms: f64,
    driver_ms: f64,
    transport_ms: f64,
    stats: StatsSum,
    counters: BTreeMap<&'static str, f64>,
}

fn per_layer_metrics(r: TraceReport) -> Vec<Metric> {
    let n = r.ops.max(1) as f64;
    let self_ns = spans::self_time_ns(&r.spans);
    let layer_ms = |span: &str| self_ns.get(span).copied().unwrap_or(0) as f64 / 1e6 / n;
    let mut out = vec![metric("transport.ms_per_op", "ms", r.transport_ms)];
    let mut covered = 0.0;
    for (span, name) in LAYERS {
        covered += layer_ms(span);
        out.push(metric(name, "ms", layer_ms(span)));
    }
    let per_op = |x: u64| x as f64 / n;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let c = |k: &str| r.counters.get(k).copied().unwrap_or(0.0);
    out.extend([
        metric("server.ms_per_op", "ms", r.server_ms),
        metric("driver.ms_per_op", "ms", r.driver_ms),
        metric("driver.rounds_per_op", "count", per_op(r.stats.rounds)),
        metric("elim.passes_per_op", "count", per_op(r.stats.passes)),
        metric("tv.checks_per_op", "count", per_op(r.stats.tv_checks)),
        metric(
            "analysis_cache.hit_ratio",
            "ratio",
            ratio(r.stats.cache_hits, r.stats.cache_lookups),
        ),
        metric("solver.pops_per_op", "count", per_op(r.stats.pops)),
        metric("solver.word_ops_per_op", "count", per_op(r.stats.word_ops)),
        metric(
            "solver.sparse_edge_visits_per_op",
            "count",
            per_op(r.stats.edge_visits),
        ),
        metric("cache.hit_ratio", "ratio", c("cache.hit_ratio")),
        metric("cache.alias_hit_ratio", "ratio", c("cache.alias_hit_ratio")),
        metric(
            "cache.canonical_hit_ratio",
            "ratio",
            c("cache.canonical_hit_ratio"),
        ),
        metric("cache.computed_share", "ratio", c("cache.computed_share")),
        metric(
            "cache.evictions_per_op",
            "count",
            c("cache.evictions_per_op"),
        ),
        metric("wal.appends_per_op", "count", c("wal.appends_per_op")),
        metric("wal.fsyncs_per_op", "count", c("wal.fsyncs_per_op")),
        metric("wal.compactions", "count", c("wal.compactions")),
        metric("trace.ops", "count", n),
        metric(
            "trace.coverage_ratio",
            "ratio",
            covered
                / if r.server_ms > 0.0 {
                    r.server_ms
                } else {
                    r.driver_ms
                },
        ),
        metric(
            "trace.overhead_ratio",
            "ratio",
            r.replica_ms / r.real_ms - 1.0,
        ),
    ]);
    out
}

fn write_spans(args: &RunArgs, spans: &[spans::SpanRec]) -> Result<String, String> {
    std::fs::create_dir_all(&args.out_dir).map_err(|e| e.to_string())?;
    let path = args.out_dir.join(format!(
        "spans_{}_{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, spans::to_jsonl(spans)).map_err(|e| e.to_string())?;
    Ok(format!(
        "{} span(s) written to {}",
        spans.len(),
        path.display()
    ))
}

fn opt_large_traced(args: &RunArgs) -> Result<Outcome, String> {
    let corpus = corpus::opt_corpus(args.seed);
    opt_warmup(&corpus)?;
    let window = Duration::from_secs_f64(args.seconds);

    // Each op twice, interleaved so drift hits both sides alike: the
    // real calls untraced, then the replica traced.
    let mut n = 0;
    let mut mismatches = 0u64;
    let mut stats = StatsSum::default();
    let (mut real, mut replica) = (Duration::ZERO, Duration::ZERO);
    spans::drain();
    let start = Instant::now();
    for (k, &(i, mode)) in corpus.ops.iter().enumerate() {
        if start.elapsed() >= window {
            break;
        }
        let t = Instant::now();
        let (want, s) = opt_path(&corpus.programs[i], mode)?;
        real += t.elapsed();
        stats.add(&s);

        spans::set_op(k as u32 + 1);
        spans::set_enabled(true);
        let t = Instant::now();
        let got = {
            let _op = spans::span("op");
            let mut prog =
                spans::timed("parse", || parse(&corpus.programs[i])).map_err(|e| e.to_string())?;
            optimize_traced(&mut prog, &mode.config())?;
            spans::timed("print", || print_program(&prog))
        };
        replica += t.elapsed();
        spans::set_enabled(false);
        mismatches += u64::from(got != want);
        n += 1;
    }
    let recorded = spans::drain();

    let mut outcome = Outcome {
        attempted: n as u64,
        failed: mismatches,
        correct: mismatches == 0,
        ..Outcome::default()
    };
    outcome.notes.push(format!(
        "opt_large traced: {n} op(s); replica byte-identical on {} of them",
        n as u64 - mismatches
    ));
    outcome.notes.push(write_spans(args, &recorded)?);
    let driver_ms = ms(real) / n.max(1) as f64;
    outcome.metrics = per_layer_metrics(TraceReport {
        ops: n,
        spans: recorded,
        real_ms: ms(real),
        replica_ms: ms(replica),
        server_ms: 0.0,
        driver_ms,
        transport_ms: 0.0,
        stats,
        counters: BTreeMap::new(),
    });
    Ok(outcome)
}

fn serve_traced(args: &RunArgs, workload: Workload) -> Result<Outcome, String> {
    let plan = serve_plan(workload, args.seed, args.seconds);
    let stream = &plan.stream;

    // 1. The real binary over stdio: mean latency and health counters.
    let dir = fresh_dir(&args.tmp, "stdio")?;
    let (mut server, warm) = serve_setup(args, &plan, &dir)?;
    let mut first_tail: Vec<Option<String>> = vec![None; stream.programs.len()];
    for (send, answer) in stream.warmup.iter().zip(&warm) {
        first_tail[send.program] = Some(tail_after_id(answer).to_string());
    }
    let w = drive(
        &mut server,
        stream,
        &first_tail,
        Duration::from_secs_f64(args.seconds * 0.25),
    )?;
    server.shutdown()?;
    let n = w.latencies_ms.len();
    let mean_latency = w.latencies_ms.iter().sum::<f64>() / n.max(1) as f64;
    let lines: Vec<String> = stream
        .measured
        .iter()
        .take(n)
        .enumerate()
        .map(|(j, s)| stream.line(s, &format!("m{j}")))
        .collect();
    let warm_lines: Vec<String> = stream
        .warmup
        .iter()
        .enumerate()
        .map(|(k, s)| stream.line(s, &format!("w{k}")))
        .collect();

    // 2. The same requests in-process, interleaved so drift hits both
    // sides alike: `Server::respond_batch(1, ..)` with the CLI's
    // options untraced, then the replica traced. Each keeps its own
    // cache file.
    let inproc_dir = fresh_dir(&args.tmp, "inproc")?;
    let inproc = Arc::new(pdce_serve::Server::new(serve_options(
        plan.cache_bytes,
        &inproc_dir.join("cache.wal"),
    )));
    let replica_dir = fresh_dir(&args.tmp, "replica")?;
    let replica = ServeReplica::new(serve_options(
        plan.cache_bytes,
        &replica_dir.join("cache.wal"),
    ));
    for line in &warm_lines {
        inproc.respond_batch(1, std::slice::from_ref(line));
        replica.respond(line)?;
    }
    let computed_before = replica.computed.lock().expect("computed lock").len();
    let evictions0 = replica.evictions();
    let alias0 = replica
        .alias_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    let canonical0 = replica
        .canonical_hits
        .load(std::sync::atomic::Ordering::Relaxed);
    let mut mismatches = 0u64;
    let (mut real, mut replica_time) = (Duration::ZERO, Duration::ZERO);
    spans::drain();
    for (j, line) in lines.iter().enumerate() {
        let t = Instant::now();
        let want = inproc.respond_batch(1, std::slice::from_ref(line));
        real += t.elapsed();

        spans::set_op(j as u32 + 1);
        spans::set_enabled(true);
        let t = Instant::now();
        let got = replica.respond(line)?;
        replica_time += t.elapsed();
        spans::set_enabled(false);
        mismatches += u64::from(want.first() != Some(&got));
    }
    drop(inproc);
    let recorded = spans::drain();
    let evictions1 = replica.evictions();
    let alias = replica
        .alias_hits
        .load(std::sync::atomic::Ordering::Relaxed)
        - alias0;
    let canonical = replica
        .canonical_hits
        .load(std::sync::atomic::Ordering::Relaxed)
        - canonical0;

    // 4. The real optimizer on every request the replica computed:
    // `PdceStats` counts, and a second byte-identity check.
    let computed: Vec<_> =
        replica.computed.lock().expect("computed lock")[computed_before..].to_vec();
    let mut stats = StatsSum::default();
    let mut driver = Duration::ZERO;
    for c in &computed {
        let mut prog = parse(&c.program).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let s = optimize_resilient(&mut prog, &c.config);
        driver += t.elapsed();
        stats.add(&s);
        if print_program(&prog) != c.output {
            mismatches += 1;
        }
    }

    let per_op = |x: f64| x / n.max(1) as f64;
    let hits = w.health.get("cache_hits");
    let misses = w.health.get("cache_misses");
    let mut counters = BTreeMap::new();
    counters.insert(
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    counters.insert("cache.alias_hit_ratio", per_op(alias as f64));
    counters.insert(
        "cache.evictions_per_op",
        per_op((evictions1 - evictions0) as f64),
    );
    counters.insert("wal.appends_per_op", per_op(w.health.get("wal_appends")));
    counters.insert("wal.fsyncs_per_op", per_op(w.health.get("wal_fsyncs")));
    counters.insert("wal.compactions", w.health.get("wal_compactions"));
    counters.insert("cache.canonical_hit_ratio", per_op(canonical as f64));
    counters.insert("cache.computed_share", per_op(computed.len() as f64));

    let mut outcome = Outcome {
        attempted: n as u64,
        failed: mismatches,
        correct: mismatches == 0,
        ..Outcome::default()
    };
    outcome.notes.push(format!(
        "{} traced: {n} request(s); {alias} alias hit(s), {canonical} canonical hit(s), {} computed; {mismatches} replica mismatch(es)",
        workload.name(),
        computed.len()
    ));
    outcome.notes.push(write_spans(args, &recorded)?);
    let server_ms = per_op(ms(real));
    outcome.metrics = per_layer_metrics(TraceReport {
        ops: n,
        spans: recorded,
        real_ms: ms(real),
        replica_ms: ms(replica_time),
        server_ms,
        driver_ms: per_op(ms(driver)),
        transport_ms: mean_latency - server_ms,
        stats,
        counters,
    });
    outcome.health = Some(w.health);
    Ok(outcome)
}
