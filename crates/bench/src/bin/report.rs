//! Regenerates every experiment tracked in `EXPERIMENTS.md`:
//! the figure corpus (the paper's worked examples) and the Section 6
//! complexity claims C1–C6 plus the dynamic-cost comparison D1 — and
//! emits the machine-readable `BENCH_PDE.json` summary (per-figure
//! timings with solver counters, the scaling sweep, and the
//! tracing-overhead A/B) so the perf trajectory has data.
//!
//! Run with: `cargo run --release -p pdce-bench --bin report`
//!
//! Flags: `--quick` runs the CI smoke slice only (figures + a small
//! sweep + the tracing A/B); `--json PATH` overrides the summary path
//! (default `BENCH_PDE.json` in the current directory); `--validate
//! PATH` only checks an existing summary against the schema and exits;
//! `--jobs N` shards the scaling sweep's per-size measurements across
//! the `pdce-par` batch pool (default 1 — wall times in the JSON are
//! only comparable across runs at the same job count).

use std::rc::Rc;
use std::time::Instant;

use pdce_baselines::duchain::DuGraph;
use pdce_baselines::Liveness;
use pdce_bench::benchjson::{
    self, BenchSummary, CsrAb, FigureRow, MetricsSection, PassLatencyRow, RecoverySection,
    ResilienceTotals, ServeSection, SweepRow, TracingAb, TvAb,
};
use pdce_bench::{figure_corpus, fit_loglog_slope, measure, verify_figure};
use pdce_core::driver::{optimize, PdceConfig};
use pdce_core::elim::{eliminate_fixpoint, Mode};
use pdce_core::{DeadSolution, DelayInfo, FaintSolution, LocalInfo, PatternTable};
use pdce_dfa::AnalysisCache;
use pdce_ir::interp::{run, Env, ExecLimits, ReplayOracle, SeededOracle};
use pdce_ir::{CfgView, Program};
use pdce_pass::Pipeline;
#[allow(unused_imports)]
use pdce_progen::tangled as _tangled_reexport_check;
use pdce_progen::{
    diamond_ladder, faint_chain, many_defs_many_uses, second_order_tower, structured, GenConfig,
};
use pdce_ssa::{DomInfo, SsaWeb};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let json_path = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_PDE.json".to_string());
    let jobs = args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse::<usize>().expect("--jobs needs a number"))
        .unwrap_or(1);

    if let Some(i) = args.iter().position(|a| a == "--validate") {
        let path = args.get(i + 1).expect("--validate needs a path");
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read `{path}`: {e}"));
        match benchjson::validate(&text) {
            Ok(()) => {
                println!("{path}: schema-valid (v{})", benchjson::SCHEMA_VERSION);
                return;
            }
            Err(e) => {
                eprintln!("{path}: schema violation: {e}");
                std::process::exit(1);
            }
        }
    }

    let figures = figures_table();
    let sweep = c1_c2_scaling(quick, jobs);
    if !quick {
        c1b_irreducible_scaling();
        c3_analysis_costs();
        c4_round_counts();
        c5_code_growth();
        c6_duchain_size();
        c7_cache_effectiveness();
        d1_dynamic_costs();
    }
    let tracing = t1_tracing_overhead(quick);
    let (tv, resilience) = t2_tv_overhead(quick);
    let csr = t3_csr_sharing(quick);
    let metrics = t4_metrics_plane(quick);
    let serve = t5_serving(quick);
    let recovery = t7_recovery(quick);

    let summary = BenchSummary {
        quick,
        figures,
        sweep,
        tracing,
        tv,
        csr,
        metrics,
        serve,
        recovery,
        resilience,
    };
    let text = summary.to_json();
    benchjson::validate(&text).expect("emitted BENCH_PDE.json is schema-valid");
    std::fs::write(&json_path, &text).unwrap_or_else(|e| panic!("cannot write `{json_path}`: {e}"));
    println!(
        "\nwrote machine-readable summary to {json_path} (schema v{})",
        benchjson::SCHEMA_VERSION
    );
}

fn hr(title: &str) {
    println!("\n==========================================================");
    println!("{title}");
    println!("==========================================================");
}

fn figures_table() -> Vec<FigureRow> {
    hr("Figures 1-13: worked-example reproduction (paper vs measured)");
    println!(
        "{:<8} {:<58} {:>10} {:>7} {:>6} {:>8} {:>9}",
        "figure", "claim", "reproduced", "rounds", "elim", "solves", "word-ops"
    );
    let mut rows = Vec::new();
    for figure in figure_corpus() {
        let solver_before = pdce_trace::solver_totals();
        let started = Instant::now();
        let (ok, rounds, eliminated) = verify_figure(&figure);
        let time_ns = started.elapsed().as_nanos();
        let solver = pdce_trace::solver_totals().since(&solver_before);
        println!(
            "{:<8} {:<58} {:>10} {:>7} {:>6} {:>8} {:>9}",
            figure.id, figure.claim, ok, rounds, eliminated, solver.problems, solver.word_ops
        );
        rows.push(FigureRow {
            id: figure.id.to_string(),
            reproduced: ok,
            rounds,
            eliminated,
            time_ns,
            solver,
        });
    }
    rows
}

fn structured_of_size(n: usize, seed: u64) -> Program {
    structured(&GenConfig {
        seed,
        target_blocks: n,
        num_vars: 8,
        stmts_per_block: (1, 4),
        out_prob: 0.2,
        loop_prob: 0.3,
        max_depth: 12,
        expr_depth: 2,
        nondet: true,
    })
}

fn c1_c2_scaling(quick: bool, jobs: usize) -> Vec<SweepRow> {
    hr("C1/C2: pde & pfe runtime scaling on structured programs");
    println!("paper: worst case O(n^4)/O(n^5); expected O(n^2)/O(n^3) on");
    println!("realistic structured programs (Section 6.4).\n");
    println!(
        "{:>7} {:>7} {:>7} {:>12} {:>12} {:>11} {:>10}",
        "target", "blocks", "stmts", "pde (µs)", "pfe (µs)", "word-ops", "pops"
    );
    let sizes: &[usize] = if quick {
        &[24, 48, 96]
    } else {
        &[24, 48, 96, 192, 384, 768]
    };
    // Shard per-size measurements across the batch pool (solver
    // counters are thread-local, so shards don't interfere).
    let measured = pdce_par::map_indexed(jobs, sizes, |_, &n| {
        let prog = structured_of_size(n, 11);
        let mp = measure(n, &prog, &PdceConfig::pde(), 3);
        let mf = measure(n, &prog, &PdceConfig::pfe(), 3);
        (mp, mf)
    });
    let mut rows = Vec::new();
    let mut pde_points = Vec::new();
    let mut pfe_points = Vec::new();
    for ((mp, mf), &n) in measured.into_iter().zip(sizes) {
        println!(
            "{:>7} {:>7} {:>7} {:>12.1} {:>12.1} {:>11} {:>10}",
            n,
            mp.blocks,
            mp.stmts,
            mp.time_ns as f64 / 1e3,
            mf.time_ns as f64 / 1e3,
            mp.stats.solver.word_ops,
            mp.stats.solver.pops()
        );
        pde_points.push((mp.stmts as f64, mp.time_ns as f64));
        pfe_points.push((mf.stmts as f64, mf.time_ns as f64));
        rows.push(SweepRow {
            target: n,
            blocks: mp.blocks,
            stmts: mp.stmts,
            pde_ns: mp.time_ns,
            pfe_ns: mf.time_ns,
            pde_solver: mp.stats.solver,
        });
    }
    println!(
        "\nfitted growth exponents (time vs statements): pde ≈ n^{:.2}, pfe ≈ n^{:.2}",
        fit_loglog_slope(&pde_points),
        fit_loglog_slope(&pfe_points)
    );
    println!("paper expectation: pde ≲ 2, pfe ≲ 3 on structured inputs.");
    rows
}

fn c1b_irreducible_scaling() {
    hr(
        "C1b: arbitrary (irreducible) control flow — same algorithm, no
special casing (the Figure 5/6 claim, at scale)",
    );
    println!(
        "{:>7} {:>7} {:>7} {:>12} {:>12}",
        "target", "blocks", "stmts", "pde (µs)", "irreducible"
    );
    let mut points = Vec::new();
    for n in [24usize, 48, 96, 192, 384] {
        let prog = pdce_progen::tangled(
            &GenConfig {
                seed: 23,
                target_blocks: n,
                num_vars: 8,
                stmts_per_block: (1, 4),
                out_prob: 0.2,
                loop_prob: 0.3,
                max_depth: 12,
                expr_depth: 2,
                nondet: true,
            },
            n / 4,
        );
        let irreducible = !CfgView::new(&prog).is_reducible();
        let m = measure(n, &prog, &PdceConfig::pde(), 3);
        println!(
            "{:>7} {:>7} {:>7} {:>12.1} {:>12}",
            n,
            m.blocks,
            m.stmts,
            m.time_ns as f64 / 1e3,
            irreducible
        );
        points.push((m.stmts as f64, m.time_ns as f64));
    }
    println!(
        "
fitted exponent on tangled graphs: pde ≈ n^{:.2}",
        fit_loglog_slope(&points)
    );
}

fn c3_analysis_costs() {
    hr("C3: component analysis costs at fixed program size");
    let prog = structured_of_size(384, 5);
    let view = CfgView::new(&prog);
    println!(
        "program: {} blocks, {} statements, {} variables\n",
        prog.num_blocks(),
        prog.num_stmts(),
        prog.num_vars()
    );

    let t = Instant::now();
    let dead = DeadSolution::compute(&prog, &view);
    let dead_t = t.elapsed();
    let t = Instant::now();
    let faint = FaintSolution::compute(&prog, &view);
    let faint_t = t.elapsed();
    let t = Instant::now();
    let table = PatternTable::build(&prog);
    let table_t = t.elapsed();
    let t = Instant::now();
    let local = LocalInfo::compute(&prog, &table);
    let local_t = t.elapsed();
    let t = Instant::now();
    let delay = DelayInfo::compute(&prog, &view, &table, &local);
    let delay_t = t.elapsed();
    let t = Instant::now();
    let du = DuGraph::build(&prog, &view);
    let du_t = t.elapsed();

    println!(
        "{:<28} {:>12} {:>14}",
        "analysis", "time (µs)", "evaluations"
    );
    println!(
        "{:<28} {:>12.1} {:>14}",
        "dead variables (bit-vector)",
        dead_t.as_nanos() as f64 / 1e3,
        dead.evaluations()
    );
    println!(
        "{:<28} {:>12.1} {:>14}",
        "faint variables (slotwise)",
        faint_t.as_nanos() as f64 / 1e3,
        faint.evaluations()
    );
    // Local predicates OR one ⌈a/64⌉-word blocking mask per variable a
    // statement or condition touches; the per-pattern scan they replace
    // probed each (instruction, pattern) pair.
    let words = table.len().div_ceil(64);
    let terms = prog.terms();
    let reads = |t: Option<pdce_ir::TermId>| t.map_or(0, |t| terms.vars_of(t).len());
    let mask_unions: usize = prog
        .node_ids()
        .map(|n| {
            let block = prog.block(n);
            let stmts: usize = block
                .stmts
                .iter()
                .map(|s| reads(s.used_term()) + usize::from(s.modified().is_some()))
                .sum();
            stmts + reads(block.term.used_term())
        })
        .sum();
    println!(
        "{:<28} {:>12.1} {:>14}",
        "pattern table + masks",
        table_t.as_nanos() as f64 / 1e3,
        table.len()
    );
    println!(
        "{:<28} {:>12.1} {:>14}",
        "local predicates (masks)",
        local_t.as_nanos() as f64 / 1e3,
        mask_unions * words
    );
    println!(
        "{:<28} {:>12.1} {:>14}",
        "delayability (bit-vector)",
        delay_t.as_nanos() as f64 / 1e3,
        delay.evaluations
    );
    println!(
        "{:<28} {:>12.1} {:>14}",
        "du-chain graph build",
        du_t.as_nanos() as f64 / 1e3,
        du.du_edges
    );
    println!("\npaper: dead/delay are bit-vector problems; faint needs the");
    println!("slotwise O(i·v) algorithm (Section 6.1).");
    println!(
        "pattern table: evaluations = patterns a; local predicates: words OR-ed \
         (a per-pattern scan probes i·a = {} pairs).",
        (prog.num_stmts() + prog.num_blocks()) * table.len()
    );
}

fn c4_round_counts() {
    hr("C4: global round count r (paper conjecture: linear in i)");
    println!("workload: second-order tower (each round unblocks one link)\n");
    println!("{:>6} {:>7} {:>7}", "k", "stmts", "rounds");
    let mut points = Vec::new();
    for k in [4usize, 8, 16, 32, 64] {
        let prog = second_order_tower(k);
        let m = measure(k, &prog, &PdceConfig::pde(), 1);
        println!("{:>6} {:>7} {:>7}", k, m.stmts, m.stats.rounds);
        points.push((k as f64, m.stats.rounds as f64));
    }
    println!(
        "\nfitted exponent: r ≈ k^{:.2} (paper bound r ≤ i·b, conjecture linear)",
        fit_loglog_slope(&points)
    );

    println!("\nelimination passes on the faint chain (dce linear, fce one):");
    println!("{:>6} {:>11} {:>11}", "k", "dce passes", "fce passes");
    for k in [4usize, 8, 16, 32] {
        let mut p = faint_chain(k);
        let (_, dce_passes) = eliminate_fixpoint(&mut p, Mode::Dead);
        let mut p = faint_chain(k);
        let (_, fce_passes) = eliminate_fixpoint(&mut p, Mode::Faint);
        println!("{:>6} {:>11} {:>11}", k, dce_passes, fce_passes);
    }
}

fn c5_code_growth() {
    hr("C5: code growth ω (paper: O(b) worst case, O(1) in practice)");
    println!(
        "{:>10} {:>7} {:>9} {:>9} {:>7}",
        "workload", "n", "initial", "peak", "ω"
    );
    for n in [8usize, 32, 128] {
        let prog = diamond_ladder(n);
        let m = measure(n, &prog, &PdceConfig::pde(), 1);
        println!(
            "{:>10} {:>7} {:>9} {:>9} {:>7.2}",
            "ladder",
            n,
            m.stats.initial_stmts,
            m.stats.max_stmts,
            m.stats.growth_factor()
        );
    }
    let mut worst: f64 = 1.0;
    for seed in 0..30u64 {
        let prog = structured_of_size(48, seed);
        let m = measure(48, &prog, &PdceConfig::pde(), 1);
        worst = worst.max(m.stats.growth_factor());
    }
    println!(
        "{:>10} {:>7} {:>9} {:>9} {:>7.2}",
        "random×30", 48, "-", "-", worst
    );
    println!("\nω stays bounded by a small constant — the practical O(1) regime.");
}

fn c6_duchain_size() {
    hr("C6: du-graph size (paper: O(i²·v) worst case)");
    println!("worst-case family (k defs × k uses of one variable):\n");
    println!("{:>6} {:>7} {:>10}", "k", "stmts", "du edges");
    let mut worst_points = Vec::new();
    for k in [8usize, 16, 32, 64, 128] {
        let prog = many_defs_many_uses(k);
        let view = CfgView::new(&prog);
        let du = DuGraph::build(&prog, &view);
        println!("{:>6} {:>7} {:>10}", k, prog.num_stmts(), du.du_edges);
        worst_points.push((k as f64, du.du_edges as f64));
    }
    println!(
        "\nfitted exponent: edges ≈ k^{:.2} (quadratic, as the paper warns)",
        fit_loglog_slope(&worst_points)
    );
    let mut random_points = Vec::new();
    for n in [48usize, 96, 192, 384] {
        let prog = structured_of_size(n, 17);
        let view = CfgView::new(&prog);
        let du = DuGraph::build(&prog, &view);
        random_points.push((prog.num_stmts() as f64, du.du_edges as f64));
    }
    println!(
        "on random structured programs: edges ≈ i^{:.2} (still superlinear —\n\
         the paper's point that du-graphs are 'usually quite large')",
        fit_loglog_slope(&random_points)
    );

    println!("\nsparse SSA web (Cytron et al., the paper's O(i·v) comparison");
    println!("point) on the same worst-case family:\n");
    println!(
        "{:>6} {:>7} {:>12} {:>12}",
        "k", "stmts", "dense edges", "ssa edges"
    );
    let mut sparse_points = Vec::new();
    for k in [8usize, 16, 32, 64, 128] {
        let prog = many_defs_many_uses(k);
        let view = CfgView::new(&prog);
        let du = DuGraph::build(&prog, &view);
        let web = SsaWeb::build(&prog, &view);
        println!(
            "{:>6} {:>7} {:>12} {:>12}",
            k,
            prog.num_stmts(),
            du.du_edges,
            web.edges
        );
        sparse_points.push((k as f64, web.edges as f64));
    }
    println!(
        "\nfitted exponents: dense ≈ k^2.00, sparse ≈ k^{:.2} — the φ-merge\n\
         turns the quadratic web linear, matching the §5.2 comparison.",
        fit_loglog_slope(&sparse_points)
    );
}

/// The pass manager's analysis cache: CFG-view rebuilds avoided inside
/// the iterated pde/pfe drivers (elimination and sinking share one view
/// per round; the stable final round reuses the previous round's
/// data-flow solutions outright).
fn c7_cache_effectiveness() {
    hr("C7: analysis cache effectiveness inside the pde/pfe drivers");
    println!(
        "{:>7} {:>7} {:>7} {:>10} {:>10} {:>10}",
        "target", "mode", "rounds", "cfg-hits", "cfg-miss", "dfa-hits"
    );
    for n in [24usize, 96, 384] {
        for (mode, config) in [("pde", PdceConfig::pde()), ("pfe", PdceConfig::pfe())] {
            let mut prog = structured_of_size(n, 11);
            let stats = optimize(&mut prog, &config).unwrap();
            println!(
                "{:>7} {:>7} {:>7} {:>10} {:>10} {:>10}",
                n,
                mode,
                stats.rounds,
                stats.cache.cfg_hits,
                stats.cache.cfg_misses,
                stats.cache.analysis_hits
            );
            assert!(
                stats.cache.cfg_hits >= stats.rounds as u64,
                "each round must reuse the shared CFG view at least once"
            );
        }
    }
    println!("\nwithout the cache every round paid ≥2 CFG-view builds (one in");
    println!("the eliminator, one in the sinker); with it, one per CFG change.");
}

fn d1_dynamic_costs() {
    hr("D1: dynamic executed assignments (who wins, per Def. 3.6)");
    println!("average over 20 random programs × 3 runs each; lower is better\n");
    let mut totals = [0u64; 5];
    let names = ["original", "dce", "pde", "pfe", "naive-sink"];
    // Every optimization level is a pipeline spec over registered passes.
    let specs = ["liveness-dce", "pde", "pfe", "split-edges,naive-sink"];
    let mut impairments = 0u32;
    for seed in 0..20u64 {
        let original = structured_of_size(40, seed.wrapping_mul(101));
        let [dce, pde_p, pfe_p, naive] = specs.map(|spec| {
            let mut prog = original.clone();
            Pipeline::parse(spec).unwrap().run(&mut prog);
            prog
        });

        for run_seed in [3u64, 17, 99] {
            let inputs: [(&str, i64); 2] = [("v0", 4), ("v1", -7)];
            let mut env = Env::with_values(&original, &inputs);
            let mut oracle = SeededOracle::new(run_seed);
            let limits = ExecLimits {
                max_block_visits: 4_000,
            };
            let t0 = run(&original, &mut env, &mut oracle, limits);
            let variants = [&original, &dce, &pde_p, &pfe_p, &naive];
            for (i, v) in variants.iter().enumerate() {
                let mut env = Env::with_values(v, &inputs);
                let mut oracle = ReplayOracle::new(t0.decisions.clone());
                let t = run(v, &mut env, &mut oracle, limits);
                assert_eq!(t.outputs, t0.outputs, "{} broke semantics", names[i]);
                totals[i] += t.executed_assignments;
                if i == 4 && t.executed_assignments > t0.executed_assignments {
                    impairments += 1;
                }
            }
        }
    }
    println!("{:<12} {:>14} {:>10}", "level", "total assigns", "vs orig");
    for (i, name) in names.iter().enumerate() {
        println!(
            "{:<12} {:>14} {:>9.1}%",
            name,
            totals[i],
            100.0 * totals[i] as f64 / totals[0] as f64
        );
    }
    println!("\nexpected shape: pfe ≤ pde ≤ dce ≤ original on every path");
    println!("(Theorem 5.2); the naive sinker impaired {impairments} run(s) here");
    println!("(random programs rarely bait it — see the irreducible_loops");
    println!("example and tests/related_work.rs for the Figure 6 impairment).");
    assert!(totals[3] <= totals[2]);
    assert!(totals[2] <= totals[1]);
    assert!(totals[1] <= totals[0]);
}

/// The disabled-tracing overhead A/B. Instrumentation cannot be
/// compiled out at run time, so the bound is two interleaved best-of-N
/// disabled-mode timings of the same pde sweep: their relative delta is
/// an upper bound on (instrumentation cost + timer noise), which the
/// acceptance bar requires to stay under 2%. A third series with a
/// buffering `Collector` installed shows what enabling costs.
fn t1_tracing_overhead(quick: bool) -> TracingAb {
    hr("T1: tracing overhead A/B (disabled must stay within noise)");
    let sizes: &[usize] = if quick { &[24, 48] } else { &[24, 48, 96, 192] };
    let progs: Vec<Program> = sizes.iter().map(|&n| structured_of_size(n, 11)).collect();
    let workload = || {
        for p in &progs {
            let mut clone = p.clone();
            optimize(&mut clone, &PdceConfig::pde()).expect("driver terminates");
        }
    };
    let time_once = || {
        let t = Instant::now();
        workload();
        t.elapsed().as_nanos()
    };
    let reps = if quick { 7 } else { 11 };
    // Warmup, then interleave the two disabled series so drift (thermal,
    // scheduler) hits both equally; keep the minimum of each.
    workload();
    let (mut a, mut b) = (u128::MAX, u128::MAX);
    for _ in 0..reps {
        a = a.min(time_once());
        b = b.min(time_once());
    }
    let mut enabled = u128::MAX;
    for _ in 0..reps {
        let collector = Rc::new(pdce_trace::Collector::new());
        let _guard = pdce_trace::install(collector);
        enabled = enabled.min(time_once());
    }
    let disabled = a.min(b);
    let delta_pct = (a.abs_diff(b)) as f64 * 100.0 / disabled as f64;
    let overhead_pct = enabled.saturating_sub(disabled) as f64 * 100.0 / disabled as f64;
    println!(
        "workload: pde over {} structured programs, best of {reps}\n",
        progs.len()
    );
    println!("{:<26} {:>12}", "series", "best (µs)");
    println!("{:<26} {:>12.1}", "disabled A", a as f64 / 1e3);
    println!("{:<26} {:>12.1}", "disabled B", b as f64 / 1e3);
    println!(
        "{:<26} {:>12.1}",
        "collector installed",
        enabled as f64 / 1e3
    );
    println!(
        "\ndisabled A/B delta: {delta_pct:.2}% (acceptance bar <2%); enabled\n\
         collection costs {overhead_pct:.1}% on this span/provenance-heavy sweep."
    );
    TracingAb {
        workload: format!(
            "pde over {} structured programs (targets {:?}), best of {reps}",
            progs.len(),
            sizes
        ),
        disabled_a_ns: a,
        disabled_b_ns: b,
        disabled_ab_delta_pct: delta_pct,
        enabled_ns: enabled,
        enabled_overhead_pct: overhead_pct,
    }
}

/// The translation-validation overhead A/B: the same pde workload with
/// per-round semantic validation off and on (K seeded vectors through
/// the interpreter per round), interleaved best-of-N, plus the
/// accumulated resilience counters of the validated series. The
/// acceptance bar requires the validated run to cost <10% extra.
fn t2_tv_overhead(quick: bool) -> (TvAb, ResilienceTotals) {
    hr("T2: translation-validation overhead A/B (bar <10%)");
    // Solver work grows faster than interpreter work with program
    // size, so the per-round validation tax is measured where the
    // optimizer actually spends time: mid-size programs. Tiny inputs
    // would overstate the relative cost of the K executions per round.
    let vectors = 2u32;
    let sizes: &[usize] = if quick { &[48, 96] } else { &[48, 96, 192] };
    let progs: Vec<Program> = sizes.iter().map(|&n| structured_of_size(n, 17)).collect();
    let base = PdceConfig::pde();
    let validated = PdceConfig::pde().with_validation(vectors);
    let time_once = |config: &PdceConfig| {
        let t = Instant::now();
        for p in &progs {
            let mut clone = p.clone();
            optimize(&mut clone, config).expect("driver terminates");
        }
        t.elapsed().as_nanos()
    };
    let reps = if quick { 7 } else { 11 };
    // Warmup both paths, then interleave so drift hits them equally.
    time_once(&base);
    time_once(&validated);
    let (mut off, mut on) = (u128::MAX, u128::MAX);
    for _ in 0..reps {
        off = off.min(time_once(&base));
        on = on.min(time_once(&validated));
    }
    let overhead_pct = on.saturating_sub(off) as f64 * 100.0 / off as f64;
    let mut totals = ResilienceTotals::default();
    for p in &progs {
        let mut clone = p.clone();
        let stats = optimize(&mut clone, &validated).expect("driver terminates");
        totals.rollbacks += stats.rollbacks;
        totals.degradations += stats.degradations;
        totals.tv_checks += stats.tv_checks;
        totals.tv_rollbacks += stats.tv_rollbacks;
        totals.budget_exhaustions += stats.budget_exhaustions;
    }
    println!(
        "workload: pde over {} structured programs, {vectors} vectors/round, best of {reps}\n",
        progs.len()
    );
    println!("{:<26} {:>12}", "series", "best (µs)");
    println!("{:<26} {:>12.1}", "validation off", off as f64 / 1e3);
    println!("{:<26} {:>12.1}", "validation on", on as f64 / 1e3);
    println!(
        "\ntv overhead: {overhead_pct:.2}% (acceptance bar <{}%); the validated\n\
         series ran {} round check(s) and rolled back {} (expected 0 on a\n\
         correct optimizer).",
        benchjson::MAX_TV_OVERHEAD_PCT,
        totals.tv_checks,
        totals.tv_rollbacks
    );
    assert_eq!(
        totals.tv_rollbacks, 0,
        "the uninjected optimizer miscompiled"
    );
    (
        TvAb {
            workload: format!(
                "pde over {} structured programs (targets {:?}), {vectors} vectors/round, \
                 best of {reps}",
                progs.len(),
                sizes
            ),
            vectors,
            off_ns: off,
            on_ns: on,
            tv_overhead_pct: overhead_pct,
        },
        totals,
    )
}

/// The shared-`CfgView` A/B (the CSR refactor's headline number): the
/// scaling sweep's analysis workload timed with every consumer building
/// its own flow-graph view per analysis — the pre-CSR access pattern,
/// where each layer recomputed predecessors and traversal orders
/// privately — versus one revision-memoized CSR view shared through
/// the [`AnalysisCache`]. Interleaved best-of-N; the acceptance bar
/// requires the shared view to save ≥10% wall time.
fn t3_csr_sharing(quick: bool) -> CsrAb {
    hr("T3: shared CSR CfgView vs per-consumer rebuilds (bar ≥10%)");
    let sizes: &[usize] = if quick {
        &[24, 48, 96]
    } else {
        &[24, 48, 96, 192, 384]
    };
    let progs: Vec<Program> = sizes.iter().map(|&n| structured_of_size(n, 11)).collect();
    // The adjacency/order-bound consumers the refactor unified — one
    // representative gen/kill solve (liveness, pdce-baselines), plus
    // dominators (pdce-ssa), reachability (pdce-ir validation), the
    // critical-edge table (edge splitting), natural back edges and
    // reducibility (the naive sinker / generators). Heavier solver
    // payloads (dead, faint, delayability) are excluded: their
    // fixpoint cost is independent of how the adjacency is obtained
    // and would only dilute the number this A/B isolates.
    fn run_consumers(prog: &Program, view: &CfgView) {
        std::hint::black_box(Liveness::compute(prog, view));
        std::hint::black_box(DomInfo::compute(view));
        std::hint::black_box(pdce_ir::validate::reaches(view, view.exit()));
        std::hint::black_box(view.critical_edges().len());
        std::hint::black_box(view.natural_back_edges());
        std::hint::black_box(view.is_reducible());
    }
    let consumers = 6usize;
    let legacy_once = || {
        let t = Instant::now();
        for p in &progs {
            // Each consumer rebuilds adjacency + orders, as each layer
            // did before the CfgView refactor.
            std::hint::black_box(Liveness::compute(p, &CfgView::new(p)));
            std::hint::black_box(DomInfo::compute(&CfgView::new(p)));
            let v = CfgView::new(p);
            std::hint::black_box(pdce_ir::validate::reaches(&v, v.exit()));
            std::hint::black_box(CfgView::new(p).critical_edges().len());
            std::hint::black_box(CfgView::new(p).natural_back_edges());
            std::hint::black_box(CfgView::new(p).is_reducible());
        }
        t.elapsed().as_nanos()
    };
    let csr_once = || {
        let t = Instant::now();
        for p in &progs {
            let mut cache = AnalysisCache::new();
            let view = cache.cfg(p);
            run_consumers(p, &view);
        }
        t.elapsed().as_nanos()
    };
    let reps = if quick { 9 } else { 15 };
    legacy_once();
    csr_once();
    let (mut legacy, mut csr) = (u128::MAX, u128::MAX);
    for _ in 0..reps {
        legacy = legacy.min(legacy_once());
        csr = csr.min(csr_once());
    }
    let reduction_pct = legacy.saturating_sub(csr) as f64 * 100.0 / legacy as f64;
    println!(
        "workload: {consumers} analyses over {} structured programs, best of {reps}\n",
        progs.len()
    );
    println!("{:<30} {:>12}", "series", "best (µs)");
    println!(
        "{:<30} {:>12.1}",
        "per-consumer view rebuilds",
        legacy as f64 / 1e3
    );
    println!("{:<30} {:>12.1}", "one cached CSR view", csr as f64 / 1e3);
    println!(
        "\ncsr wall-time reduction: {reduction_pct:.2}% (acceptance bar ≥{}%).",
        benchjson::MIN_CSR_WALLTIME_REDUCTION_PCT
    );
    CsrAb {
        workload: format!(
            "{consumers} analyses (liveness, dominators, reachability, critical edges, \
             back edges, reducibility) over \
             {} structured programs (targets {:?}), best of {reps}",
            progs.len(),
            sizes
        ),
        legacy_ns: legacy,
        csr_ns: csr,
        csr_walltime_reduction_pct: reduction_pct,
    }
}

/// The metrics-plane section (this PR's headline numbers). Three parts:
///
/// 1. **Overhead A/B** — the same pde workload with registry recording
///    enabled and suppressed via the runtime gate, interleaved
///    best-of-N. Unlike the tracing A/B (which can only bound
///    disabled-mode noise), `pdce_metrics::suppressed` genuinely turns
///    the atomic updates off, so this is a direct on-vs-off measurement
///    held against the <2% bar.
/// 2. **Snapshot stability** — the structured corpus optimized through
///    the `pdce-par` pool at `jobs=1` and `jobs=4`; the
///    run-scoped `prometheus_deterministic()` exposition must be
///    byte-identical (deterministic families count logical work, not
///    wall time, and sum commutatively across threads).
/// 3. **Per-pass latency quantiles** — `pdce_pass_wall_ns` read back
///    from the registry after a pipeline run over the corpus.
fn t4_metrics_plane(quick: bool) -> MetricsSection {
    hr("T4: always-on metrics plane (overhead bar <2%, stable snapshots)");
    let sizes: &[usize] = if quick { &[24, 48] } else { &[24, 48, 96, 192] };
    let progs: Vec<Program> = sizes.iter().map(|&n| structured_of_size(n, 11)).collect();
    let time_once = || {
        let t = Instant::now();
        for p in &progs {
            let mut clone = p.clone();
            optimize(&mut clone, &PdceConfig::pde()).expect("driver terminates");
        }
        t.elapsed().as_nanos()
    };
    let reps = if quick { 7 } else { 11 };
    // Warmup both gates, then interleave so drift hits them equally.
    time_once();
    pdce_metrics::suppressed(time_once);
    let (mut on, mut off) = (u128::MAX, u128::MAX);
    for _ in 0..reps {
        on = on.min(time_once());
        off = off.min(pdce_metrics::suppressed(time_once));
    }
    let overhead_pct = on.saturating_sub(off) as f64 * 100.0 / off as f64;

    // Snapshot stability on the CFG corpus: same programs, different
    // worker counts, byte-compared deterministic exposition deltas.
    let corpus_n: u64 = if quick { 40 } else { 200 };
    let corpus: Vec<Program> = (0..corpus_n)
        .map(|i| structured_of_size(24 + (i as usize % 5) * 12, 1_000 + i))
        .collect();
    let deterministic_delta = |jobs: usize| {
        let base = pdce_metrics::global().snapshot();
        pdce_par::map_indexed(jobs, &corpus, |_, p| {
            let mut clone = p.clone();
            optimize(&mut clone, &PdceConfig::pde()).expect("driver terminates");
        });
        pdce_metrics::global()
            .snapshot()
            .since(&base)
            .prometheus_deterministic()
    };
    let snap_seq = deterministic_delta(1);
    let snap_par = deterministic_delta(4);
    let snapshot_stable = snap_seq == snap_par;

    // Per-pass latency: the registered pass pipeline is what feeds the
    // `pdce_pass_wall_ns` family, so run it over a slice of the corpus
    // and read the quantiles back from the run-scoped delta.
    let base = pdce_metrics::global().snapshot();
    let pipeline = Pipeline::parse("pde,pfe").expect("registered passes");
    for p in corpus.iter().take(if quick { 10 } else { 30 }) {
        let mut clone = p.clone();
        pipeline.run(&mut clone);
    }
    let delta = pdce_metrics::global().snapshot().since(&base);
    let mut pass_latency = Vec::new();
    for s in &delta.series {
        if s.name != "pdce_pass_wall_ns" {
            continue;
        }
        if let pdce_metrics::Value::Histogram(h) = &s.value {
            if h.count == 0 {
                continue;
            }
            let pass = s
                .labels
                .iter()
                .find(|(k, _)| *k == "pass")
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            pass_latency.push(PassLatencyRow {
                pass,
                count: h.count,
                p50_ns: h.quantile(0.5),
                p90_ns: h.quantile(0.9),
                p99_ns: h.quantile(0.99),
                max_ns: h.max_estimate(),
            });
        }
    }

    println!(
        "workload: pde over {} structured programs, best of {reps}\n",
        progs.len()
    );
    println!("{:<26} {:>12}", "series", "best (µs)");
    println!("{:<26} {:>12.1}", "recording suppressed", off as f64 / 1e3);
    println!("{:<26} {:>12.1}", "recording enabled", on as f64 / 1e3);
    println!(
        "\nmetrics overhead: {overhead_pct:.2}% (acceptance bar <{}%).",
        benchjson::MAX_METRICS_OVERHEAD_PCT
    );
    println!(
        "deterministic snapshot over the {corpus_n}-CFG corpus: jobs=1 vs jobs=4 {}",
        if snapshot_stable {
            "byte-identical"
        } else {
            "DIVERGED"
        }
    );
    println!(
        "\n{:<10} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "pass", "count", "p50 (ns)", "p90 (ns)", "p99 (ns)", "max (ns)"
    );
    for p in &pass_latency {
        println!(
            "{:<10} {:>7} {:>12} {:>12} {:>12} {:>12}",
            p.pass, p.count, p.p50_ns, p.p90_ns, p.p99_ns, p.max_ns
        );
    }
    println!("(quantiles are inclusive upper log₂-bucket edges)");
    MetricsSection {
        workload: format!(
            "pde over {} structured programs (targets {:?}), best of {reps}; \
             stability over a {corpus_n}-CFG corpus at jobs 1 vs 4",
            progs.len(),
            sizes
        ),
        off_ns: off,
        on_ns: on,
        metrics_overhead_pct: overhead_pct,
        snapshot_stable,
        pass_latency,
    }
}

fn t5_serving(quick: bool) -> ServeSection {
    hr("T5: pdce serve throughput/latency (cold vs warm cache)");
    // A corpus of small programs, each request encoded once so the cold
    // and warm replays send byte-identical lines.
    let corpus_n: u64 = if quick { 60 } else { 200 };
    let wall_ms_budget: u64 = 200;
    let requests: Vec<String> = (0..corpus_n)
        .map(|i| {
            let prog = structured_of_size(10 + (i as usize % 5) * 4, 7_000 + i);
            pdce_serve::protocol::encode_request(
                None,
                &pdce_ir::printer::print_program(&prog),
                pdce_serve::Mode::Pde,
            )
        })
        .collect();
    let server = pdce_serve::Server::new(pdce_serve::ServeOptions {
        wall_ms: Some(wall_ms_budget),
        ..pdce_serve::ServeOptions::default()
    });
    // Replay the corpus through the per-request serving path, recording
    // each request's latency (the quantile source) and the replay wall
    // time (the throughput source).
    let replay = || -> (u128, Vec<u64>, Vec<String>) {
        let mut lat = Vec::with_capacity(requests.len());
        let mut responses = Vec::with_capacity(requests.len());
        let total = Instant::now();
        for line in &requests {
            let t = Instant::now();
            let response = server.respond_line(line).expect("one response per request");
            lat.push(t.elapsed().as_nanos() as u64);
            responses.push(response);
        }
        (total.elapsed().as_nanos(), lat, responses)
    };
    let (cold_ns, _, cold_responses) = replay();
    let (warm_ns, mut warm_lat, warm_responses) = replay();
    let warm_identical = cold_responses == warm_responses;
    let req_per_sec = corpus_n as f64 * 1e9 / warm_ns as f64;
    warm_lat.sort_unstable();
    let quantile = |q: f64| {
        let rank = ((warm_lat.len() as f64 * q).ceil() as usize).clamp(1, warm_lat.len());
        warm_lat[rank - 1]
    };
    let (p50_ns, p99_ns) = (quantile(0.5), quantile(0.99));
    let warm_speedup_pct = cold_ns.saturating_sub(warm_ns) as f64 * 100.0 / cold_ns as f64;

    println!("workload: {corpus_n} small structured programs, --wall-ms {wall_ms_budget}\n");
    println!("{:<22} {:>12} {:>14}", "replay", "wall (ms)", "req/s");
    for (name, ns) in [("cold (computed)", cold_ns), ("warm (cache hits)", warm_ns)] {
        println!(
            "{:<22} {:>12.2} {:>14.0}",
            name,
            ns as f64 / 1e6,
            corpus_n as f64 * 1e9 / ns as f64
        );
    }
    println!(
        "\nwarm latency: p50 {:.1} µs, p99 {:.1} µs (admission cap {wall_ms_budget} ms)",
        p50_ns as f64 / 1e3,
        p99_ns as f64 / 1e3
    );
    println!(
        "warm responses byte-identical to cold: {warm_identical}; \
         warm speedup {warm_speedup_pct:.1}% (bars: ≥{} req/s, ≥{}% speedup)",
        benchjson::MIN_SERVE_REQ_PER_SEC,
        benchjson::MIN_SERVE_WARM_SPEEDUP_PCT
    );
    ServeSection {
        workload: format!(
            "{corpus_n} small structured programs replayed through the serve path, \
             cold cache then warm"
        ),
        requests: corpus_n,
        cold_ns,
        warm_ns,
        req_per_sec,
        p50_ns,
        p99_ns,
        wall_ms_budget,
        warm_identical,
        warm_speedup_pct,
    }
}

/// The WAL + crash-recovery drill behind the self-healing serving
/// plane: first an A/B that prices the journal (cold replays through
/// an in-memory cache vs a journaled on-disk one, interleaved
/// best-of-N, bar <5% overhead), then a kill -9 rehearsal — replay the
/// corpus through a journaled server, read its `wal_appends` off the
/// `{"op":"health"}` introspection line, and *drop the server without
/// any clean save* so the append-only log is the only survivor. A
/// second server recovers from that log and replays the same corpus;
/// every request must come back (`requests_lost == 0`) and every
/// answer must match its pre-crash bytes.
fn t7_recovery(quick: bool) -> RecoverySection {
    hr("T7: WAL overhead + crash-recovery drill (bars: <5%, lose nothing)");
    // Mid-sized programs: the WAL-overhead claim is per *served
    // request*, so each request must carry a realistic optimize cost —
    // against trivial programs the fixed journal append would dominate
    // and the A/B would price the fsync cadence, not the serving plane.
    let corpus_n: u64 = if quick { 40 } else { 120 };
    let requests: Vec<String> = (0..corpus_n)
        .map(|i| {
            let prog = structured_of_size(24 + (i as usize % 5) * 8, 9_000 + i);
            pdce_serve::protocol::encode_request(
                None,
                &pdce_ir::printer::print_program(&prog),
                pdce_serve::Mode::Pde,
            )
        })
        .collect();
    let replay = |server: &pdce_serve::Server| -> (u128, Vec<String>) {
        let mut responses = Vec::with_capacity(requests.len());
        let total = Instant::now();
        for line in &requests {
            responses.push(server.respond_line(line).expect("one response per request"));
        }
        (total.elapsed().as_nanos(), responses)
    };
    let scratch = std::env::temp_dir().join(format!("pdce-bench-wal-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create WAL scratch dir");

    // A/B: journaling cost on the cold path (the only path that
    // appends). Fresh caches each rep so both sides stay cold;
    // interleaved best-of-N absorbs scheduler noise.
    let reps = 5;
    let (mut wal_off_ns, mut wal_on_ns) = (u128::MAX, u128::MAX);
    for rep in 0..reps {
        let off_server = pdce_serve::Server::new(pdce_serve::ServeOptions::default());
        wal_off_ns = wal_off_ns.min(replay(&off_server).0);
        let on_server = pdce_serve::Server::new(pdce_serve::ServeOptions {
            cache_path: Some(scratch.join(format!("ab-{rep}.cache"))),
            ..pdce_serve::ServeOptions::default()
        });
        wal_on_ns = wal_on_ns.min(replay(&on_server).0);
    }
    let wal_overhead_pct = (wal_on_ns as f64 - wal_off_ns as f64) * 100.0 / wal_off_ns as f64;

    // Crash drill. `drop` without `save_cache` leaves exactly what a
    // kill -9 leaves: the append-only log.
    let drill_path = scratch.join("drill.cache");
    let drill_opts = || pdce_serve::ServeOptions {
        cache_path: Some(drill_path.clone()),
        ..pdce_serve::ServeOptions::default()
    };
    let pre_server = pdce_serve::Server::new(drill_opts());
    let (_, pre) = replay(&pre_server);
    let health = pre_server
        .respond_line("{\"op\":\"health\"}")
        .expect("health answers");
    let wal_appends = health_counter(&health, "wal_appends");
    drop(pre_server);

    let post_server = pdce_serve::Server::new(drill_opts());
    let wal_recovered = post_server.cache_load_report().loaded as u64;
    let mut requests_lost: u64 = 0;
    let mut post = Vec::with_capacity(requests.len());
    for line in &requests {
        match post_server.respond_line(line) {
            Some(response) => post.push(response),
            None => requests_lost += 1,
        }
    }
    let warm_identical_after_crash = requests_lost == 0 && pre == post;
    let _ = std::fs::remove_dir_all(&scratch);

    println!("workload: {corpus_n} small structured programs, cold replays\n");
    println!(
        "WAL off {:.2} ms, on {:.2} ms → overhead {wal_overhead_pct:.2}% (bar <{}%)",
        wal_off_ns as f64 / 1e6,
        wal_on_ns as f64 / 1e6,
        benchjson::MAX_WAL_OVERHEAD_PCT
    );
    println!(
        "crash drill: {wal_appends} appends journaled, {wal_recovered} entries recovered, \
         {requests_lost} requests lost, post-crash bytes identical: {warm_identical_after_crash}"
    );
    RecoverySection {
        workload: format!(
            "{corpus_n} small structured programs; journaled replay, drop without save, \
             recover and replay"
        ),
        requests: corpus_n,
        requests_lost,
        warm_identical_after_crash,
        wal_off_ns,
        wal_on_ns,
        wal_overhead_pct,
        wal_appends,
        wal_recovered,
    }
}

/// Pulls one non-negative counter out of a flat `{"op":"health"}`
/// response line.
fn health_counter(health: &str, field: &str) -> u64 {
    let needle = format!("\"{field}\":");
    let at = health.find(&needle).map(|i| i + needle.len());
    let digits: String = at
        .map(|i| {
            health[i..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect()
        })
        .unwrap_or_default();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("health line lacks `{field}`: {health}"))
}
