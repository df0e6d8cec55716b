//! The `pdce` command-line tool.
//!
//! The subcommands and their flags are listed once, in `USAGE`, which
//! `pdce --help` prints. `FILE` defaults to standard input. Programs use the textual language
//! of `pdce::ir::parser` (see the repository README).

use std::io::Read;
use std::process::ExitCode;
use std::sync::{Arc, LazyLock};

use pdce::core::better::{check_improvement, BetterOptions};
use pdce::core::driver::{optimize, optimize_resilient, PdceConfig};
use pdce::core::RunTotals;
use pdce::ir::interp::{run, Env, ExecLimits, SeededOracle};
use pdce::ir::parser::parse;
use pdce::ir::printer::{print_program, print_stmt};
use pdce::ir::{CfgView, Program};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        // Exit-code contract: 1 = bad input (unreadable or unparseable
        // program), 2 = internal failure (optimizer bug, verify
        // violation, environment error).
        Err(CliError::BadInput(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
        Err(CliError::Internal(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  pdce opt     [--mode pde|pfe|dce|fce] [--region a,b,c]
               [--max-rounds N] [--jobs N]
               [--simplify] [--stats] [--verify]
               [--validate-semantics[=K]] [--max-pops N] [--wall-ms N]
               [--trace FILE.json] [--explain] [--metrics]
               [--metrics-out FILE.prom] [--events-out FILE.jsonl]
               [FILE...]
               --trace writes a Chrome trace_events JSON (chrome://tracing,
               ui.perfetto.dev); --explain prints the provenance log: which
               pass moved/inserted/eliminated which statement in which round;
               with several FILEs the programs are optimized independently
               and printed in argument order — --jobs N shards them over N
               workers (0 = all cores) with deterministic, jobs-independent
               output
               --validate-semantics runs translation validation after
               every round on K seeded input vectors (default 8) and
               rolls back any round that changes observable
               behaviour; --max-pops / --wall-ms bound the
               solver worklist and wall clock — an exhausted budget
               degrades the run down the resilience ladder instead of
               failing (elimination only, and finally the identity
               transformation)
               --metrics appends the run's metric registry (counters and
               latency quantiles) to the --stats output; --metrics-out
               writes the same registry as a Prometheus text-exposition
               snapshot at exit; --events-out writes a structured JSONL
               event log (run id, per-file attribution)
               whose bytes are independent of --jobs
  pdce serve   [--tcp ADDR | --unix PATH] [--jobs N]
               [--max-rounds N] [--max-pops N] [--wall-ms N]
               [--validate-semantics[=K]] [--cache FILE] [--cache-bytes N]
               [--fsync-every N] [--max-strikes K]
               [--watchdog-soft-ms N] [--watchdog-hard-ms N]
               [--no-cache] [--max-request-bytes N] [--metrics-out FILE.prom]
               long-lived optimization service: newline-delimited JSON
               requests on stdin (responses on stdout), or on a TCP/Unix
               socket with --tcp/--unix. Each request is
               {\"op\":\"optimize\",\"program\":\"...\",\"mode\":\"pde\",...}
               and each response carries a status field reusing the exit
               codes below per request (0 served, 1 bad request, 2
               internal). --max-rounds/--max-pops/--wall-ms are admission
               caps: requests may lower them, never raise them. --cache
               persists the content-hash-keyed result cache across
               restarts; --cache-bytes bounds it (LRU). Inserts are
               journaled to a checksummed write-ahead log beside the
               cache file and fsynced every --fsync-every appends, so a
               crash loses at most the unsynced tail. A request that
               panics or blows its budget is answered once, at the
               ladder's rung (identity at worst), and never cached;
               after --max-strikes failures its program hash is
               quarantined (0 disables). --watchdog-soft-ms and
               --watchdog-hard-ms bound wall time per request even for
               wedged workers. {\"op\":\"health\"} returns a one-line
               snapshot of the request, cache, WAL, quarantine and
               watchdog counters.
               The loop exits on stdin EOF or an {\"op\":\"shutdown\"}
               request, after draining every request already read.
  pdce run     [--in name=value]... [--seed N] [--fuel N] [FILE]
  pdce analyze [FILE]
  pdce universe [--mode pde|pfe] [--max N] [FILE]
  pdce dot     [FILE]
  pdce check   [FILE]

exit codes: 0 success, 1 bad input, 2 usage or internal failure";

enum CliError {
    Usage(String),
    /// The user's program could not be read or parsed (exit 1).
    BadInput(String),
    /// Anything that is our fault or the environment's (exit 2).
    Internal(String),
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn bad_input(msg: impl std::fmt::Display) -> CliError {
    CliError::BadInput(msg.to_string())
}

fn failed(msg: impl std::fmt::Display) -> CliError {
    CliError::Internal(msg.to_string())
}

fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some(cmd) = args.first() else {
        return Err(usage("missing subcommand"));
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "opt" => cmd_opt(rest),
        "run" => cmd_run(rest),
        "analyze" => cmd_analyze(rest),
        "universe" => cmd_universe(rest),
        "dot" => cmd_dot(rest),
        "check" => cmd_check(rest),
        "serve" => cmd_serve(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(usage(format!("unknown subcommand `{other}`"))),
    }
}

/// Splits flags (and their values) from the trailing file paths.
struct Parsed {
    flags: Vec<(String, String)>,
    files: Vec<String>,
}

impl Parsed {
    /// The single optional file of the one-input subcommands.
    fn single_file(&self) -> Result<Option<&str>, CliError> {
        match self.files.len() {
            0 => Ok(None),
            1 => Ok(Some(&self.files[0])),
            _ => Err(usage(format!(
                "unexpected argument `{}` (this subcommand takes one FILE)",
                self.files[1]
            ))),
        }
    }
}

/// Flags whose value is optional: `--flag` and `--flag=value` both
/// work (the bare form records an empty value).
const OPTIONAL_VALUE: &[&str] = &["validate-semantics"];

fn parse_args(
    args: &[String],
    flags_with_value: &[&str],
    bare_flags: &[&str],
) -> Result<Parsed, CliError> {
    let mut flags = Vec::new();
    let mut files = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(name) = a.strip_prefix("--") {
            let optional = |n: &str| OPTIONAL_VALUE.contains(&n) && bare_flags.contains(&n);
            if let Some((n, v)) = name.split_once('=') {
                if flags_with_value.contains(&n) || optional(n) {
                    flags.push((n.to_owned(), v.to_owned()));
                } else if bare_flags.contains(&n) {
                    return Err(usage(format!("--{n} does not take a value")));
                } else {
                    return Err(usage(format!("unknown flag --{n}")));
                }
            } else if bare_flags.contains(&name) {
                flags.push((name.to_owned(), String::new()));
            } else if flags_with_value.contains(&name) {
                i += 1;
                let v = args
                    .get(i)
                    .ok_or_else(|| usage(format!("--{name} needs a value")))?;
                flags.push((name.to_owned(), v.clone()));
            } else {
                return Err(usage(format!("unknown flag --{name}")));
            }
        } else {
            files.push(a.clone());
        }
        i += 1;
    }
    Ok(Parsed { flags, files })
}

/// Renders a parse error as `file:line:col: message` (semantic errors
/// have no position and render as `file: message`).
fn render_parse_error(display: &str, e: &pdce::ir::error::ParseError) -> String {
    if e.line == 0 {
        format!("{display}: {}", e.message)
    } else {
        format!("{display}:{}:{}: {}", e.line, e.col, e.message)
    }
}

fn load(file: Option<&str>) -> Result<Program, CliError> {
    let display = file.unwrap_or("<stdin>");
    let source = match file {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| bad_input(format!("cannot read `{path}`: {e}")))?,
        None => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| bad_input(format!("cannot read stdin: {e}")))?;
            buf
        }
    };
    parse(&source).map_err(|e| bad_input(render_parse_error(display, &e)))
}

/// Registry handle for the per-file latency histogram; both the
/// single-file and the batch path observe one sample per optimized file.
static FILE_WALL: LazyLock<Arc<pdce::metrics::Histogram>> = LazyLock::new(|| {
    pdce::metrics::global().histogram(
        "pdce_file_wall_ns",
        "Per-file end-to-end optimization wall time in nanoseconds",
        pdce::metrics::Stability::Timing,
        &[],
    )
});

/// What `--metrics`, `--metrics-out`, and `--events-out` asked for, plus
/// the deterministic run id events are stamped with.
struct TelemetryOptions {
    want_metrics: bool,
    metrics_out: Option<String>,
    events_out: Option<String>,
    run_id: String,
}

impl TelemetryOptions {
    fn wants_events(&self) -> bool {
        self.events_out.is_some()
    }

    /// Writes the run's metrics (the optimizer families rendered from
    /// `runs`, plus what the registry recorded in this process) and the
    /// event log to wherever the flags pointed.
    fn emit(
        &self,
        runs: &RunTotals,
        events: &pdce::metrics::events::EventLog,
    ) -> Result<(), CliError> {
        if self.want_metrics || self.metrics_out.is_some() {
            let mut snap = pdce::metrics::global().snapshot();
            runs.render(&mut snap);
            if let Some(path) = &self.metrics_out {
                std::fs::write(path, snap.prometheus())
                    .map_err(|e| failed(format!("cannot write metrics `{path}`: {e}")))?;
                eprintln!("metrics: wrote {} series to {path}", snap.series.len());
            }
            if self.want_metrics {
                eprint!("{}", snap.human_table());
            }
        }
        if let Some(path) = &self.events_out {
            std::fs::write(path, events.to_jsonl())
                .map_err(|e| failed(format!("cannot write events `{path}`: {e}")))?;
            eprintln!("events: wrote {} event(s) to {path}", events.len());
        }
        Ok(())
    }
}

/// One `file` event for the JSONL log, attributing a file's outcome to
/// the run: what changed, which resilience rung won, and what the cache
/// and solvers did. Deliberately carries no wall-clock fields so the log
/// stays byte-identical across `--jobs` values.
fn file_event(
    path: &str,
    index: usize,
    stats: &pdce::core::driver::PdceStats,
) -> pdce::metrics::events::Event {
    pdce::metrics::events::Event::new("file")
        .field("file", path)
        .field("index", index)
        .field("rounds", stats.rounds)
        .field("eliminated", stats.eliminated_assignments)
        .field("sunk", stats.sunk_assignments)
        .field("inserted", stats.inserted_assignments)
        .field("rung", stats.degraded.map_or("none", |m| m.label()))
        .field("tv_checks", stats.tv_checks)
        .field("tv_rollbacks", stats.tv_rollbacks)
        .field("rollbacks", stats.rollbacks)
        .field("budget_exhaustions", stats.budget_exhaustions)
        .field("cache_hits", stats.cache.hits())
        .field("cache_misses", stats.cache.misses())
        .field("cfg_relayouts", stats.cache.cfg_relayouts)
        .field("pops", stats.solver.pops())
        .field("word_ops", stats.solver.word_ops)
}

fn cmd_opt(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_args(
        args,
        &[
            "mode",
            "region",
            "max-rounds",
            "trace",
            "jobs",
            "max-pops",
            "wall-ms",
            "metrics-out",
            "events-out",
        ],
        &[
            "stats",
            "verify",
            "simplify",
            "explain",
            "validate-semantics",
            "metrics",
        ],
    )?;
    let mut config = PdceConfig::pde();
    let mut trace_path: Option<String> = None;
    let mut jobs = 1usize;
    let mut want_stats = false;
    let mut want_verify = false;
    let mut want_simplify = false;
    let mut want_explain = false;
    let mut budget = pdce::trace::budget::Budget::UNLIMITED;
    let mut validate: Option<u32> = None;
    let mut want_metrics = false;
    let mut metrics_out: Option<String> = None;
    let mut events_out: Option<String> = None;
    for (name, value) in &parsed.flags {
        match name.as_str() {
            "mode" => {
                config = match value.as_str() {
                    "pde" => PdceConfig::pde(),
                    "pfe" => PdceConfig::pfe(),
                    "dce" => PdceConfig::dce_only(),
                    "fce" => PdceConfig::fce_only(),
                    other => return Err(usage(format!("unknown mode `{other}`"))),
                };
            }
            "region" => {
                config = config.with_region(value.split(',').map(str::trim));
            }
            "max-rounds" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| usage(format!("bad --max-rounds `{value}`")))?;
                config = config.truncating_after(n);
            }
            "trace" => trace_path = Some(value.clone()),
            "jobs" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| usage(format!("bad --jobs `{value}`")))?;
                jobs = if n == 0 { pdce::par::default_jobs() } else { n };
            }
            "max-pops" => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| usage(format!("bad --max-pops `{value}`")))?;
                budget.max_pops = Some(n);
            }
            "wall-ms" => {
                let n: u64 = value
                    .parse()
                    .map_err(|_| usage(format!("bad --wall-ms `{value}`")))?;
                budget.wall_time = Some(std::time::Duration::from_millis(n));
            }
            "validate-semantics" => {
                validate = Some(if value.is_empty() {
                    8
                } else {
                    value
                        .parse()
                        .map_err(|_| usage(format!("bad --validate-semantics `{value}`")))?
                });
            }
            "stats" => want_stats = true,
            "verify" => want_verify = true,
            "simplify" => want_simplify = true,
            "explain" => want_explain = true,
            "metrics" => want_metrics = true,
            "metrics-out" => metrics_out = Some(value.clone()),
            "events-out" => events_out = Some(value.clone()),
            _ => unreachable!(),
        }
    }
    // Applied after the loop so they survive a later `--mode` rebuild.
    config = config.with_budget(budget);
    if let Some(k) = validate {
        config = config.with_validation(k);
    }
    // The run id hashes the logical request — flags and files — but not
    // the flags that vary without changing the work (`--jobs`, output
    // paths), so event logs from equivalent runs carry the same id.
    let run_id = pdce::metrics::events::run_id(
        std::iter::once("opt")
            .chain(
                parsed
                    .flags
                    .iter()
                    .filter(|(n, _)| {
                        !matches!(n.as_str(), "jobs" | "trace" | "metrics-out" | "events-out")
                    })
                    .flat_map(|(n, v)| [n.as_str(), v.as_str()]),
            )
            .chain(parsed.files.iter().map(String::as_str)),
    );
    let telemetry = TelemetryOptions {
        want_metrics,
        metrics_out,
        events_out,
        run_id,
    };
    if parsed.files.len() > 1 {
        return cmd_opt_batch(&BatchOptions {
            files: &parsed.files,
            config: &config,
            jobs,
            trace_path: trace_path.as_deref(),
            want_stats,
            want_verify,
            want_simplify,
            want_explain,
            telemetry: &telemetry,
        });
    }
    let display = parsed.single_file()?.unwrap_or("<stdin>").to_string();
    let original = load(parsed.single_file()?)?;
    let mut prog = original.clone();
    let mut events = pdce::metrics::events::EventLog::new(telemetry.run_id.clone());
    if telemetry.wants_events() {
        events.record(pdce::metrics::events::Event::new("run").field("files", 1usize));
    }
    let file_start = std::time::Instant::now();
    let collector = (trace_path.is_some() || want_explain)
        .then(|| std::rc::Rc::new(pdce::trace::Collector::new()));
    let runs = {
        // Tracing covers exactly the optimization (the exporters below
        // run after the guard drops, so they don't trace themselves).
        let _guard = collector
            .as_ref()
            .map(|c| pdce::trace::install(c.clone() as std::rc::Rc<dyn pdce::trace::Tracer>));
        let stats = optimize_resilient(&mut prog, &config);
        if telemetry.wants_events() {
            events.record(file_event(&display, 0, &stats));
        }
        for note in &stats.failure_log {
            eprintln!("warning: {note}");
        }
        if want_simplify {
            let s = pdce::ir::simplify_cfg(&mut prog);
            if want_stats {
                eprintln!(
                    "simplify:    {} forwarded, {} merged, {} removed",
                    s.forwarded, s.merged, s.removed
                );
            }
        }
        print!("{}", print_program(&prog));
        if want_stats {
            eprintln!("rounds:      {}", stats.rounds);
            eprintln!("eliminated:  {}", stats.eliminated_assignments);
            eprintln!("sunk:        {}", stats.sunk_assignments);
            eprintln!("inserted:    {}", stats.inserted_assignments);
            eprintln!("synthetic:   {}", stats.synthetic_blocks);
            eprintln!("growth ω:    {:.2}", stats.growth_factor());
            eprintln!(
                "cache:       {} rebuild(s) avoided, {} rebuild(s) paid",
                stats.cache.hits(),
                stats.cache.misses()
            );
            eprintln!(
                "solver:      {} problem(s), {} evaluation(s), {} word op(s)",
                stats.solver.problems, stats.solver.evaluations, stats.solver.word_ops
            );
            eprintln!("pops:        {} worklist", stats.solver.priority_pops);
            if stats.truncated {
                eprintln!("truncated:   yes");
            }
            if stats.rollbacks > 0 || stats.degradations > 0 || stats.budget_exhaustions > 0 {
                eprintln!(
                    "resilience:  {} rollback(s), {} degradation(s), {} budget exhaustion(s)",
                    stats.rollbacks, stats.degradations, stats.budget_exhaustions
                );
            }
            if stats.tv_checks > 0 {
                eprintln!(
                    "validated:   {} tv check(s), {} tv rollback(s)",
                    stats.tv_checks, stats.tv_rollbacks
                );
            }
            if let Some(mode) = stats.degraded {
                eprintln!("degraded:    {}", mode.label());
            }
        }
        RunTotals::of(&config, &stats)
    };
    FILE_WALL.observe(file_start.elapsed().as_nanos() as u64);
    if let Some(c) = &collector {
        if let Some(path) = &trace_path {
            let json = pdce::trace::chrome::chrome_trace(
                &c.events(),
                &pdce::trace::chrome::ChromeOptions::wall(),
            );
            std::fs::write(path, json)
                .map_err(|e| failed(format!("cannot write trace `{path}`: {e}")))?;
            eprintln!(
                "trace: wrote {} event(s) to {path} (open in chrome://tracing or ui.perfetto.dev)",
                c.len()
            );
        }
        if want_explain {
            eprint!(
                "{}",
                pdce::trace::explain::render_with_solver(
                    &c.provenance(),
                    &pdce::trace::solver_totals()
                )
            );
        }
    }
    telemetry.emit(&runs, &events)?;
    if want_verify {
        let report = check_improvement(&original, &prog, &BetterOptions::default());
        if !report.holds() {
            return Err(failed("internal error: result does not dominate the input"));
        }
        eprintln!(
            "verified: dominates the input on {} path(s) ({})",
            report.paths_checked,
            if report.exact { "exact" } else { "sampled" }
        );
    }
    Ok(())
}

/// Everything the multi-file batch path needs from `cmd_opt`.
struct BatchOptions<'a> {
    files: &'a [String],
    config: &'a PdceConfig,
    jobs: usize,
    trace_path: Option<&'a str>,
    want_stats: bool,
    want_verify: bool,
    want_simplify: bool,
    want_explain: bool,
    telemetry: &'a TelemetryOptions,
}

/// Per-file result of a batch worker.
struct FileReport {
    output: String,
    stats: pdce::core::driver::PdceStats,
    /// Degradations, rollbacks, and TV notes, echoed as warnings.
    warnings: Vec<String>,
}

/// Per-file failure of a batch worker. `bad_input` separates the
/// user's fault (unreadable or unparseable file, exit 1) from ours
/// (internal error or worker panic, exit 2); the message is
/// self-contained and already names the file.
struct FileError {
    bad_input: bool,
    message: String,
}

/// `pdce opt FILE FILE...`: optimizes independent programs, sharded
/// over `--jobs` workers, and prints them in argument order with a
/// `// ==== <file> ====` header each. Every worker runs with its own
/// trace collector; the buffers are merged in file order (never
/// completion order) so `--trace` output is byte-stable for a fixed
/// input list regardless of worker count. A file that fails to read,
/// parse, or verify produces a diagnostic naming it — never a panic —
/// and does not stop the other files.
fn cmd_opt_batch(opts: &BatchOptions) -> Result<(), CliError> {
    use pdce::trace::{merge_collected, Collected};

    let want_collect = opts.trace_path.is_some() || opts.want_explain;
    // try_map_indexed sandboxes every file: a panicking worker item
    // becomes a per-file error while its siblings still run to
    // completion (and no partial batch is ever discarded).
    let outcomes: Vec<(Result<FileReport, FileError>, Option<Collected>)> =
        pdce::par::try_map_indexed(opts.jobs, opts.files, |_, path| {
            let collector = want_collect.then(|| std::rc::Rc::new(pdce::trace::Collector::new()));
            let file_start = std::time::Instant::now();
            let result = {
                let _guard = collector.as_ref().map(|c| {
                    pdce::trace::install(c.clone() as std::rc::Rc<dyn pdce::trace::Tracer>)
                });
                optimize_one_file(path, opts.config, opts.want_simplify, opts.want_verify)
            };
            FILE_WALL.observe(file_start.elapsed().as_nanos() as u64);
            let collected = collector.as_ref().map(|c| Collected::from_collector(c));
            (result, collected)
        })
        .into_iter()
        .zip(opts.files)
        .map(|(item, path)| match item {
            Ok(outcome) => outcome,
            Err(p) => (
                Err(FileError {
                    bad_input: false,
                    message: format!("{path}: worker panicked: {}", p.message),
                }),
                None,
            ),
        })
        .collect();

    let mut errors = 0usize;
    let mut all_bad_input = true;
    let mut totals = pdce::trace::SolverStats::ZERO;
    let mut total_eliminated = 0u64;
    let mut runs = RunTotals::default();
    for (path, (result, _)) in opts.files.iter().zip(&outcomes) {
        match result {
            Ok(report) => {
                runs.add(&RunTotals::of(opts.config, &report.stats));
                println!("// ==== {path} ====");
                print!("{}", report.output);
                for note in &report.warnings {
                    eprintln!("warning: {path}: {note}");
                }
                if opts.want_stats {
                    let degraded = match report.stats.degraded {
                        Some(mode) => format!(", degraded to {}", mode.label()),
                        None => String::new(),
                    };
                    eprintln!(
                        "{path}: rounds {}, eliminated {}, sunk {}, {} solver problem(s){degraded}",
                        report.stats.rounds,
                        report.stats.eliminated_assignments,
                        report.stats.sunk_assignments,
                        report.stats.solver.problems
                    );
                    totals.add(&report.stats.solver);
                    total_eliminated += report.stats.eliminated_assignments;
                }
            }
            Err(e) => {
                errors += 1;
                all_bad_input &= e.bad_input;
                eprintln!("error: {}", e.message);
            }
        }
    }
    if opts.want_stats {
        eprintln!(
            "total:       {} file(s), {} eliminated, {} solver problem(s), \
             {} worklist pop(s)",
            opts.files.len() - errors,
            total_eliminated,
            totals.problems,
            totals.priority_pops
        );
    }
    // One event per file, in argument order — the same merge rule as
    // traces — so the log's bytes are independent of `--jobs`.
    let mut events = pdce::metrics::events::EventLog::new(opts.telemetry.run_id.clone());
    if opts.telemetry.wants_events() {
        events.record(pdce::metrics::events::Event::new("run").field("files", opts.files.len()));
        for (index, (path, (result, _))) in opts.files.iter().zip(&outcomes).enumerate() {
            match result {
                Ok(report) => events.record(file_event(path, index, &report.stats)),
                Err(e) => events.record(
                    pdce::metrics::events::Event::new("file")
                        .field("file", path.as_str())
                        .field("index", index)
                        .field("error", e.message.as_str()),
                ),
            }
        }
    }
    if opts.want_explain {
        // Explain sections come out in argument file order, one per
        // file, each rendered against that file's own solver totals.
        // (Workers accumulate `solver_totals()` thread-locally, so the
        // main thread's totals are empty under --jobs N; the per-file
        // stats carried in the report are the correct source.)
        for (path, (result, collected)) in opts.files.iter().zip(&outcomes) {
            eprintln!("// ==== {path} ====");
            match result {
                Ok(report) => {
                    let provenance = collected
                        .as_ref()
                        .map(|c| c.provenance.as_slice())
                        .unwrap_or(&[]);
                    eprint!(
                        "{}",
                        pdce::trace::explain::render_with_solver(provenance, &report.stats.solver)
                    );
                }
                Err(_) => eprintln!("file failed; no provenance"),
            }
        }
    }
    if want_collect {
        let merged = merge_collected(
            outcomes
                .into_iter()
                .filter_map(|(_, collected)| collected)
                .collect(),
        );
        if let Some(path) = opts.trace_path {
            // The logical clock makes the merged trace byte-stable for a
            // fixed file list, independent of worker count or scheduling.
            let json = pdce::trace::chrome::chrome_trace(
                &merged.events,
                &pdce::trace::chrome::ChromeOptions::logical(),
            );
            std::fs::write(path, json)
                .map_err(|e| failed(format!("cannot write trace `{path}`: {e}")))?;
            eprintln!(
                "trace: wrote {} event(s) to {path} (open in chrome://tracing or ui.perfetto.dev)",
                merged.events.len()
            );
        }
    }
    opts.telemetry.emit(&runs, &events)?;
    if errors > 0 {
        let msg = format!("{errors} of {} file(s) failed", opts.files.len());
        return Err(if all_bad_input {
            bad_input(msg)
        } else {
            failed(msg)
        });
    }
    Ok(())
}

/// Reads, optimizes, and prints one batch file; all failure modes come
/// back as a clean, file-naming message — never a panic.
fn optimize_one_file(
    path: &str,
    config: &PdceConfig,
    want_simplify: bool,
    want_verify: bool,
) -> Result<FileReport, FileError> {
    let user_fault = |message: String| FileError {
        bad_input: true,
        message,
    };
    let our_fault = |message: String| FileError {
        bad_input: false,
        message,
    };
    let source = std::fs::read_to_string(path)
        .map_err(|e| user_fault(format!("cannot read `{path}`: {e}")))?;
    let original = parse(&source).map_err(|e| user_fault(render_parse_error(path, &e)))?;
    let mut prog = original.clone();
    let stats = optimize_resilient(&mut prog, config);
    let warnings = stats.failure_log.clone();
    if want_simplify {
        pdce::ir::simplify_cfg(&mut prog);
    }
    if want_verify {
        let report = check_improvement(&original, &prog, &BetterOptions::default());
        if !report.holds() {
            return Err(our_fault(format!(
                "{path}: internal error: result does not dominate the input"
            )));
        }
    }
    Ok(FileReport {
        output: print_program(&prog),
        stats,
        warnings,
    })
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_args(args, &["in", "seed", "fuel"], &[])?;
    let prog = load(parsed.single_file()?)?;
    let mut env = Env::zeroed(&prog);
    let mut seed = 0u64;
    let mut fuel = 100_000u64;
    for (name, value) in &parsed.flags {
        match name.as_str() {
            "in" => {
                let (var, val) = value
                    .split_once('=')
                    .ok_or_else(|| usage(format!("--in wants name=value, got `{value}`")))?;
                let val: i64 = val
                    .parse()
                    .map_err(|_| usage(format!("bad value in `--in {value}`")))?;
                match prog.vars().lookup(var) {
                    Some(v) => env.set(v, val),
                    None => eprintln!("warning: variable `{var}` does not occur; ignored"),
                }
            }
            "seed" => {
                seed = value
                    .parse()
                    .map_err(|_| usage(format!("bad --seed `{value}`")))?;
            }
            "fuel" => {
                fuel = value
                    .parse()
                    .map_err(|_| usage(format!("bad --fuel `{value}`")))?;
            }
            _ => unreachable!(),
        }
    }
    let mut oracle = SeededOracle::new(seed);
    let trace = run(
        &prog,
        &mut env,
        &mut oracle,
        ExecLimits {
            max_block_visits: fuel,
        },
    );
    for value in &trace.outputs {
        println!("{value}");
    }
    eprintln!(
        "executed {} statement(s), {} assignment(s); {}",
        trace.executed_stmts,
        trace.executed_assignments,
        if trace.completed {
            "halted"
        } else {
            "fuel exhausted"
        }
    );
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_args(args, &[], &[])?;
    let prog = load(parsed.single_file()?)?;
    let view = CfgView::new(&prog);
    let dead = pdce::core::DeadSolution::compute(&prog, &view);
    let faint = pdce::core::FaintSolution::compute(&prog, &view);
    let table = pdce::core::PatternTable::build(&prog);
    let local = pdce::core::LocalInfo::compute(&prog, &table);
    let delay = pdce::core::DelayInfo::compute(&prog, &view, &table, &local);

    println!("patterns:");
    for i in 0..table.len() {
        println!("  [{i}] {}", table.key(&prog, i));
    }
    for n in prog.node_ids() {
        let block = prog.block(n);
        println!("\nblock {}:", block.name);
        let dead_after = dead.after_each_stmt(&prog, n);
        for (k, stmt) in block.stmts.iter().enumerate() {
            let mut facts = Vec::new();
            if let Some(lhs) = stmt.modified() {
                if dead_after[k].get(lhs.index()) {
                    facts.push("lhs dead after");
                } else if faint.faint_after(&prog, n, k, lhs) {
                    facts.push("lhs faint after");
                }
            }
            if local.candidates_of(n).iter().any(|&(ck, _)| ck == k) {
                facts.push("sinking candidate");
            }
            let suffix = if facts.is_empty() {
                String::new()
            } else {
                format!("   ; {}", facts.join(", "))
            };
            println!("  {}{}", print_stmt(&prog, stmt), suffix);
        }
        let fmt_bits = |bits: pdce::dfa::Row<'_>| -> String {
            let names: Vec<String> = bits
                .iter_ones()
                .map(|i| table.key(&prog, i).to_string())
                .collect();
            if names.is_empty() {
                "∅".to_owned()
            } else {
                names.join(" | ")
            }
        };
        println!("  N-DELAYED: {}", fmt_bits(delay.n_delayed.row(n.index())));
        println!("  X-DELAYED: {}", fmt_bits(delay.x_delayed.row(n.index())));
        println!("  N-INSERT:  {}", fmt_bits(delay.n_insert.row(n.index())));
        println!("  X-INSERT:  {}", fmt_bits(delay.x_insert.row(n.index())));
    }
    Ok(())
}

/// Theorem 5.2 on demand: enumerate the bounded transformation universe
/// of the (split) input and verify the driver's output dominates every
/// member.
fn cmd_universe(args: &[String]) -> Result<(), CliError> {
    use pdce::core::universe::{assert_optimal_on_universe, UniverseOptions};
    let parsed = parse_args(args, &["mode", "max"], &[])?;
    let mut mode = pdce::core::Mode::Dead;
    let mut max_programs = 2000usize;
    for (name, value) in &parsed.flags {
        match name.as_str() {
            "mode" => {
                mode = match value.as_str() {
                    "pde" => pdce::core::Mode::Dead,
                    "pfe" => pdce::core::Mode::Faint,
                    other => return Err(usage(format!("unknown mode `{other}`"))),
                };
            }
            "max" => {
                max_programs = value
                    .parse()
                    .map_err(|_| usage(format!("bad --max `{value}`")))?;
            }
            _ => unreachable!(),
        }
    }
    let mut start = load(parsed.single_file()?)?;
    pdce::ir::edgesplit::split_critical_edges(&mut start);
    let mut optimized = start.clone();
    let config = match mode {
        pdce::core::Mode::Dead => PdceConfig::pde(),
        pdce::core::Mode::Faint => PdceConfig::pfe(),
    };
    optimize(&mut optimized, &config).map_err(failed)?;
    let opts = UniverseOptions {
        mode,
        max_programs,
        better: BetterOptions::default(),
    };
    match assert_optimal_on_universe(&start, &optimized, &opts) {
        Ok(check) => {
            println!(
                "optimal: dominates all {} reachable program(s){}",
                check.programs_checked,
                if check.truncated {
                    " (exploration truncated at --max)"
                } else {
                    ""
                }
            );
            Ok(())
        }
        Err(v) => Err(failed(format!(
            "NOT optimal — beaten by:\n{}",
            v.competitor
        ))),
    }
}

fn cmd_dot(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_args(args, &[], &[])?;
    let prog = load(parsed.single_file()?)?;
    print!("{}", pdce::ir::dot::to_dot(&prog, "pdce"));
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_args(args, &[], &[])?;
    let prog = load(parsed.single_file()?)?;
    println!(
        "ok: {} block(s), {} statement(s), {} variable(s), {}",
        prog.num_blocks(),
        prog.num_stmts(),
        prog.num_vars(),
        if CfgView::new(&prog).is_reducible() {
            "reducible"
        } else {
            "irreducible"
        }
    );
    Ok(())
}

/// `pdce serve`: the long-lived optimization service. Requests arrive
/// as newline-delimited JSON on stdin (or a TCP/Unix socket) and every
/// line is answered — the per-request `status` field reuses the CLI
/// exit-code taxonomy, so one hostile request degrades or errors alone
/// instead of taking the daemon down.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let parsed = parse_args(
        args,
        &[
            "tcp",
            "unix",
            "jobs",
            "max-rounds",
            "max-pops",
            "wall-ms",
            "cache",
            "cache-bytes",
            "fsync-every",
            "max-strikes",
            "watchdog-soft-ms",
            "watchdog-hard-ms",
            "max-request-bytes",
            "metrics-out",
        ],
        &["validate-semantics", "no-cache"],
    )?;
    if let Some(extra) = parsed.files.first() {
        return Err(usage(format!(
            "unexpected argument `{extra}` (serve reads requests from its socket or stdin)"
        )));
    }
    let mut opts = pdce::serve::ServeOptions::default();
    let mut tcp: Option<String> = None;
    let mut unix: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let parse_u64 = |name: &str, value: &str| -> Result<u64, CliError> {
        value
            .parse()
            .map_err(|_| usage(format!("bad --{name} `{value}`")))
    };
    for (name, value) in &parsed.flags {
        match name.as_str() {
            "tcp" => tcp = Some(value.clone()),
            "unix" => unix = Some(value.clone()),
            "jobs" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| usage(format!("bad --jobs `{value}`")))?;
                opts.jobs = if n == 0 { pdce::par::default_jobs() } else { n };
            }
            "max-rounds" => opts.max_rounds = Some(parse_u64(name, value)?),
            "max-pops" => opts.max_pops = Some(parse_u64(name, value)?),
            "wall-ms" => opts.wall_ms = Some(parse_u64(name, value)?),
            "validate-semantics" => {
                opts.validate = Some(if value.is_empty() {
                    8
                } else {
                    value
                        .parse()
                        .map_err(|_| usage(format!("bad --validate-semantics `{value}`")))?
                });
            }
            "cache" => opts.cache_path = Some(value.into()),
            "cache-bytes" => opts.cache_bytes = parse_u64(name, value)?,
            "fsync-every" => opts.wal_fsync_every = parse_u64(name, value)?,
            "max-strikes" => {
                opts.max_strikes = u32::try_from(parse_u64(name, value)?)
                    .map_err(|_| usage(format!("bad --max-strikes `{value}`")))?;
            }
            "watchdog-soft-ms" => opts.watchdog_soft_ms = Some(parse_u64(name, value)?),
            "watchdog-hard-ms" => opts.watchdog_hard_ms = Some(parse_u64(name, value)?),
            "max-request-bytes" => {
                opts.max_request_bytes = parse_u64(name, value)? as usize;
            }
            "no-cache" => opts.cache = false,
            "metrics-out" => metrics_out = Some(value.clone()),
            _ => unreachable!(),
        }
    }
    if tcp.is_some() && unix.is_some() {
        return Err(usage("--tcp and --unix are mutually exclusive"));
    }
    let server = std::sync::Arc::new(pdce::serve::Server::new(opts));
    let report = server.cache_load_report();
    if report.loaded > 0 || report.skipped > 0 {
        eprintln!(
            "serve: cache loaded {} entr{} ({} corrupt line(s) skipped)",
            report.loaded,
            if report.loaded == 1 { "y" } else { "ies" },
            report.skipped
        );
    }
    let summary = if let Some(addr) = tcp {
        let listener = std::net::TcpListener::bind(&addr)
            .map_err(|e| failed(format!("cannot bind tcp `{addr}`: {e}")))?;
        eprintln!(
            "serve: listening on tcp {}",
            listener.local_addr().map_err(failed)?
        );
        server.serve_tcp(listener).map_err(failed)?
    } else if let Some(path) = unix {
        // A leftover socket file from a crashed server must be cleared
        // before bind, but blindly unlinking would silently evict a
        // *live* server. Probe with a connect: refused/absent means the
        // file is stale and safe to remove.
        if std::fs::symlink_metadata(&path).is_ok() {
            match std::os::unix::net::UnixStream::connect(&path) {
                Ok(_) => {
                    return Err(failed(format!(
                        "unix socket `{path}` is in use by a live server"
                    )));
                }
                Err(_) => {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        let listener = std::os::unix::net::UnixListener::bind(&path)
            .map_err(|e| failed(format!("cannot bind unix socket `{path}`: {e}")))?;
        eprintln!("serve: listening on unix {path}");
        let summary = server.serve_unix(listener).map_err(failed)?;
        let _ = std::fs::remove_file(&path);
        summary
    } else {
        server
            .serve(std::io::stdin(), std::io::stdout().lock())
            .map_err(failed)?
    };
    if let Some(path) = &metrics_out {
        let mut snap = pdce::metrics::global().snapshot();
        server.render_metrics(&mut snap);
        std::fs::write(path, snap.prometheus())
            .map_err(|e| failed(format!("cannot write metrics `{path}`: {e}")))?;
        eprintln!("metrics: wrote {} series to {path}", snap.series.len());
    }
    eprintln!(
        "serve: {} request(s) ({} ok, {} bad, {} internal), cache {} hit(s) / {} miss(es), {}",
        summary.requests,
        summary.ok,
        summary.bad_input,
        summary.internal,
        summary.cache_hits,
        summary.cache_misses,
        if summary.shutdown { "shutdown" } else { "eof" }
    );
    Ok(())
}
