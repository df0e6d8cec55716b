//! Replicas of the program's hot paths, built only from its public
//! functions, with a span around each layer. The traced run checks that
//! every replica answer is byte-identical to the real call's.
//!
//! * [`optimize_traced`] repeats `optimize_resilient`'s first rung and
//!   `optimize_with_cache`'s round loop. Before each transform it asks
//!   the `AnalysisCache` for the view, the chain graph and the dead or
//!   faint solution (or the pattern table) itself, so every solve lands
//!   in its own span and the transform finds it cached.
//! * [`ServeReplica`] repeats `Server`'s per-request path in the
//!   server's order: supervised dispatch, decode, alias lookup, parse,
//!   canonical print and key, cache lookup, quarantine and breaker,
//!   optimize, print, cache insert, render.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use pdce_core::driver::{LimitBehavior, PdceConfig};
use pdce_core::elim::{eliminate_once_cached, Mode as ElimMode};
use pdce_core::sink::sink_assignments_cached;
use pdce_core::tv::{validate_pair, TvOptions};
use pdce_core::{DeadSolution, FaintSolution, PatternTable};
use pdce_dfa::AnalysisCache;
use pdce_ir::edgesplit::split_critical_edges;
use pdce_ir::parser::parse;
use pdce_ir::printer::print_program;
use pdce_ir::Program;
use pdce_par::{supervised_map, ItemOutcome, SupervisorOptions};
use pdce_serve::protocol::{render_result, Op, Request, ResultPayload};
use pdce_serve::quarantine::{Breaker, BreakerConfig, Quarantine};
use pdce_serve::{CacheKey, Mode as ServeMode, PersistentCache, ServeOptions};
use pdce_trace::{budget, sandbox};

use crate::spans::{adopt, context, timed};

/// What one replicated optimizer run did: the `PdceStats` fields the
/// serve protocol renders.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverCounts {
    pub rounds: u64,
    pub eliminated: u64,
    pub sunk: u64,
    pub inserted: u64,
}

/// `optimize_resilient`'s first rung: the run on a clone of `prog`
/// inside the panic sandbox, committed on success. The `ladder` span's
/// self time is that clone, the sandbox and the budget bookkeeping.
pub fn optimize_traced(prog: &mut Program, config: &PdceConfig) -> Result<DriverCounts, String> {
    let _ladder = crate::spans::span("ladder");
    let mut attempt = prog.clone();
    let mut cache = AnalysisCache::new();
    match sandbox::catch(|| round_loop(&mut attempt, config, &mut cache)) {
        Ok(Ok(counts)) => {
            *prog = attempt;
            Ok(counts)
        }
        Ok(Err(e)) => Err(e),
        Err(e) => Err(format!("replica attempt failed: {e:?}")),
    }
}

fn round_loop(
    prog: &mut Program,
    config: &PdceConfig,
    cache: &mut AnalysisCache,
) -> Result<DriverCounts, String> {
    let _budget = budget::install(config.budget);
    let tv_vectors = config.tv_vectors();
    let mut counts = DriverCounts::default();
    if config.sinking {
        timed("split", || split_critical_edges(prog));
    }
    let cap = config
        .max_rounds
        .unwrap_or_else(|| PdceConfig::default_round_cap(prog));
    loop {
        counts.rounds += 1;
        if counts.rounds as usize > cap {
            match config.on_limit {
                LimitBehavior::Error => return Err("round cap exceeded".to_string()),
                LimitBehavior::Truncate => {
                    counts.rounds -= 1;
                    break;
                }
            }
        }
        budget::charge_round().map_err(|e| e.to_string())?;
        let before = prog.revision();
        let last_good = (tv_vectors > 0).then(|| prog.clone());
        loop {
            request_solution(prog, cache, config.mode);
            let removed = timed("elim", || {
                eliminate_once_cached(prog, cache, config.mode, None)
            });
            if removed == 0 {
                break;
            }
            counts.eliminated += removed;
        }
        if config.sinking {
            timed("cfg", || cache.cfg(prog));
            timed("patterns", || {
                cache.analysis::<PatternTable, _>(prog, |p, _| PatternTable::build(p))
            });
            let outcome = timed("sink", || sink_assignments_cached(prog, cache, None))
                .map_err(|_| "critical edge left unsplit".to_string())?;
            counts.sunk += outcome.removed;
            counts.inserted += outcome.inserted;
        }
        if let Some(last_good) = last_good.filter(|_| prog.revision() != before) {
            let opts = TvOptions {
                vectors: tv_vectors,
                max_block_visits: (last_good.num_blocks() as u64 * 8).max(256),
                ..TvOptions::default()
            };
            let report = timed("tv", || validate_pair(&last_good, prog, &opts));
            if report.mismatch.is_some() {
                *prog = last_good;
                *cache = AnalysisCache::new();
                break;
            }
        }
        if prog.revision() == before {
            break;
        }
    }
    Ok(counts)
}

/// Asks the cache for what `eliminate_once_cached` is about to use,
/// with the same builders, so each solve is timed on its own.
fn request_solution(prog: &Program, cache: &mut AnalysisCache, mode: ElimMode) {
    timed("cfg", || cache.cfg(prog));
    match mode {
        ElimMode::Dead => {
            timed("dead", || {
                cache.analysis_seeded::<DeadSolution, _>(prog, |p, v, seed| match seed {
                    Some((prev, delta)) => {
                        DeadSolution::compute_seeded(p, v, prev, delta.dirty_blocks())
                    }
                    None => DeadSolution::compute(p, v),
                })
            });
        }
        ElimMode::Faint => {
            let du = timed("du", || cache.du(prog));
            timed("faint", || {
                cache.analysis_seeded::<FaintSolution, _>(prog, |p, v, seed| match seed {
                    Some((prev, delta)) => {
                        FaintSolution::compute_seeded_with_du(p, v, &du, prev, delta.dirty_blocks())
                    }
                    None => FaintSolution::compute_with_du(p, v, &du),
                })
            });
        }
    }
}

/// The options `pdce serve --jobs 1 --cache <path> --cache-bytes <n>`
/// runs with: the CLI defaults otherwise.
pub fn serve_options(cache_bytes: u64, cache_path: &Path) -> ServeOptions {
    ServeOptions {
        jobs: 1,
        cache_bytes,
        cache_path: Some(cache_path.to_path_buf()),
        ..ServeOptions::default()
    }
}

/// The optimizer configuration a request runs with (the server's
/// admission: request values, capped by the server's).
fn config_for(opts: &ServeOptions, req: &Request) -> PdceConfig {
    let config = match req.mode {
        ServeMode::Pde => PdceConfig::pde(),
        ServeMode::Pfe => PdceConfig::pfe(),
        ServeMode::Dce => PdceConfig::dce_only(),
        ServeMode::Fce => PdceConfig::fce_only(),
    }
    .with_budget(budget::Budget {
        max_rounds: None,
        max_pops: None,
        wall_time: opts.wall_ms.map(Duration::from_millis),
    });
    match req.validate.or(opts.validate) {
        Some(k) if k > 0 => config.with_validation(k),
        _ => config,
    }
}

/// The canonical option string the server keys alongside the program.
fn options_key(opts: &ServeOptions, req: &Request) -> String {
    let opt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |v| v.to_string());
    format!(
        "mode={};rounds=-;pops=-;wall={};validate={};solver=ambient",
        req.mode.label(),
        opt(opts.wall_ms),
        opt(req.validate.or(opts.validate).map(u64::from)),
    )
}

/// The watchdog deadlines the server derives from its wall budget.
fn supervisor(opts: &ServeOptions) -> SupervisorOptions {
    let soft = opts
        .watchdog_soft_ms
        .or(opts.wall_ms.map(|w| w.saturating_mul(2).max(50)));
    let hard = opts
        .watchdog_hard_ms
        .or(soft.map(|s| s.saturating_add(1_000)));
    SupervisorOptions {
        jobs: 1,
        soft_deadline: soft.map(Duration::from_millis),
        hard_deadline: hard.map(Duration::from_millis),
    }
}

/// A request the replica had to compute, kept so the real optimizer
/// can be rerun on it afterwards (for `PdceStats` and a second
/// byte-identity check).
#[derive(Debug, Clone)]
pub struct Computed {
    pub program: String,
    pub config: PdceConfig,
    pub output: String,
}

/// The per-request serving path, replicated.
pub struct ServeReplica {
    opts: ServeOptions,
    cache: Mutex<PersistentCache>,
    quarantine: Mutex<Quarantine>,
    breaker: Mutex<Breaker>,
    pub alias_hits: AtomicU64,
    pub canonical_hits: AtomicU64,
    pub computed: Mutex<Vec<Computed>>,
}

struct Reply {
    line: String,
    verdict: Option<CacheKey>,
}

impl ServeReplica {
    /// A replica of a server started with `opts` (which must name a
    /// cache file).
    pub fn new(opts: ServeOptions) -> Arc<ServeReplica> {
        let path = opts
            .cache_path
            .clone()
            .expect("the benchmark's servers use a cache file");
        Arc::new(ServeReplica {
            cache: Mutex::new(PersistentCache::load_with_fsync(
                &path,
                opts.cache_bytes,
                opts.wal_fsync_every,
            )),
            quarantine: Mutex::new(Quarantine::in_memory(opts.max_strikes)),
            breaker: Mutex::new(Breaker::new(BreakerConfig::default())),
            opts,
            alias_hits: AtomicU64::new(0),
            canonical_hits: AtomicU64::new(0),
            computed: Mutex::new(Vec::new()),
        })
    }

    /// LRU evictions of the replica's cache so far.
    pub fn evictions(&self) -> u64 {
        self.cache.lock().expect("cache lock").evictions
    }

    /// Answers one request line the way `Server::respond_batch(1, ..)`
    /// does: a one-item supervised batch, then the verdict settled on
    /// the dispatching thread.
    pub fn respond(self: &Arc<ServeReplica>, line: &str) -> Result<String, String> {
        let _dispatch = crate::spans::span("dispatch");
        let ctx = context();
        let me = Arc::clone(self);
        let worker = move |_: usize, line: &Arc<String>| {
            let _ctx = adopt(ctx);
            me.respond_request(line)
        };
        let mut outcomes = supervised_map(
            supervisor(&self.opts),
            vec![Arc::new(line.to_string())],
            worker,
        );
        match outcomes.pop() {
            Some(ItemOutcome::Done(Ok(reply))) => {
                if let Some(key) = reply.verdict {
                    self.quarantine
                        .lock()
                        .expect("quarantine lock")
                        .absolve(key);
                    self.breaker.lock().expect("breaker lock").record(false);
                }
                Ok(reply.line)
            }
            Some(ItemOutcome::Done(Err(e))) => Err(e),
            _ => Err("replica worker panicked or wedged".to_string()),
        }
    }

    fn respond_request(&self, line: &str) -> Result<Reply, String> {
        let _request = crate::spans::span("request");
        let req = timed("decode", || Request::decode(line))?;
        if req.op != Op::Optimize {
            return Err("the replica answers optimize requests only".to_string());
        }
        let options = options_key(&self.opts, &req);
        let raw_key = timed("canon", || CacheKey::compute(&req.program, &options));
        let alias = timed("cache_get", || {
            self.cache
                .lock()
                .expect("cache lock")
                .get_raw_alias(raw_key)
        });
        if let Some(payload) = alias {
            self.alias_hits.fetch_add(1, Ordering::Relaxed);
            let line = timed("render", || render_result(&req.id, &payload));
            return Ok(Reply {
                line,
                verdict: None,
            });
        }
        let parsed = timed("parse", || parse(&req.program)).map_err(|e| e.to_string())?;
        let key = timed("canon", || {
            CacheKey::compute(&print_program(&parsed), &options)
        });
        let hit = timed("cache_get", || {
            let mut cache = self.cache.lock().expect("cache lock");
            cache.record_alias(raw_key, key);
            cache.get(key)
        });
        if let Some(payload) = hit {
            self.canonical_hits.fetch_add(1, Ordering::Relaxed);
            let line = timed("render", || render_result(&req.id, &payload));
            return Ok(Reply {
                line,
                verdict: None,
            });
        }
        if self.opts.max_strikes > 0 && self.quarantine.lock().expect("quarantine lock").check(key)
        {
            return Err(format!("program {} is quarantined", key.hex()));
        }
        if !self.breaker.lock().expect("breaker lock").admit() {
            return Err("breaker open".to_string());
        }
        let config = config_for(&self.opts, &req);
        let mut prog = parsed;
        let counts = sandbox::catch(|| optimize_traced(&mut prog, &config))
            .map_err(|e| format!("{e:?}"))??;
        let payload = ResultPayload {
            program: timed("print", || print_program(&prog)),
            rounds: counts.rounds,
            eliminated: counts.eliminated,
            sunk: counts.sunk,
            inserted: counts.inserted,
            rung: "none".to_string(),
        };
        self.computed.lock().expect("computed lock").push(Computed {
            program: req.program.clone(),
            config: config.clone(),
            output: payload.program.clone(),
        });
        timed("cache_insert", || {
            self.cache
                .lock()
                .expect("cache lock")
                .insert(key, payload.clone())
        });
        let line = timed("render", || render_result(&req.id, &payload));
        Ok(Reply {
            line,
            verdict: Some(key),
        })
    }
}
