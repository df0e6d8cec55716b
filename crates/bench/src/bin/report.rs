//! Regenerates every experiment tracked in `EXPERIMENTS.md`:
//! the figure corpus (the paper's worked examples) and the Section 6
//! complexity claims C1–C6 plus the dynamic-cost comparison D1 — and
//! emits the machine-readable `BENCH_PDE.json` summary: one record per
//! section, timing series measured as interleaved A/B pairs, and every
//! acceptance bar of `benchjson::BARS` judged on the run's numbers.
//!
//! Run with: `cargo run --release -p pdce-bench --bin report`
//!
//! Flags: `--quick` runs the CI smoke slice only (figures, a small
//! sweep, and the T sections on smaller workloads); `--json PATH`
//! overrides the summary path (default `BENCH_PDE.json` in the current
//! directory); `--validate PATH` only checks an existing summary and
//! exits; `--jobs N` shards the scaling sweep's per-size measurements
//! across the `pdce-par` batch pool (default 1 — wall times in the JSON
//! are only comparable across runs at the same job count). The summary
//! is written before it is judged: a failed bar is listed on stderr and
//! the exit status is 1, exactly as `--validate` on the file would be.

use std::rc::Rc;
use std::time::Instant;

use pdce_baselines::duchain::DuGraph;
use pdce_baselines::ssa::{DomInfo, SsaWeb};
use pdce_baselines::{liveness_dce, naive_sink, Liveness};
use pdce_bench::benchjson::{self, paired, Document, Record, Series, BARS};
use pdce_bench::{figure_corpus, fit_loglog_slope, measure, verify_figure};
use pdce_core::driver::{optimize, PdceConfig};
use pdce_core::elim::{eliminate_fixpoint, Mode};
use pdce_core::{DeadSolution, DelayInfo, FaintSolution, LocalInfo, PatternTable, RunTotals};
use pdce_dfa::AnalysisCache;
use pdce_ir::edgesplit::split_critical_edges;
use pdce_ir::interp::{run, Env, ExecLimits, ReplayOracle, SeededOracle};
use pdce_ir::{CfgView, Program};
use pdce_progen::{
    diamond_ladder, faint_chain, many_defs_many_uses, second_order_tower, structured, GenConfig,
};
use pdce_trace::metrics::Snapshot;

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
        validate_or_exit(path, &text);
        println!("{path}: schema-valid (v{})", benchjson::SCHEMA_VERSION);
        return;
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
    type Section = fn(bool) -> (String, Vec<Series>);
    let sections: [(&str, Section); 6] = [
        ("tracing", t1_tracing_overhead),
        ("tv", t2_tv_overhead),
        ("csr", t3_csr_sharing),
        ("metrics", t4_metrics_plane),
        ("serve", t5_serving),
        ("recovery", t7_recovery),
    ];
    let mut records = vec![figures, sweep];
    for (id, section) in sections {
        let (workload, series) = section(quick);
        let id = id.to_string();
        records.push(Record {
            id,
            workload,
            series,
        });
        print_record(&records[records.len() - 1]);
    }
    let text = Document { quick, records }.to_json();
    std::fs::write(&json_path, &text).unwrap_or_else(|e| panic!("cannot write `{json_path}`: {e}"));
    println!(
        "\nwrote machine-readable summary to {json_path} (schema v{})",
        benchjson::SCHEMA_VERSION
    );
    validate_or_exit(&json_path, &text);
}

/// Validates a summary, listing every violation and exiting 1 on any.
fn validate_or_exit(path: &str, text: &str) {
    if let Err(e) = benchjson::validate(text) {
        eprintln!("{path}: schema violation: {e}");
        std::process::exit(1);
    }
}

/// Prints a record's series (median and interquartile range) and its
/// bars with their verdicts.
fn print_record(r: &Record) {
    println!("workload: {}\n", r.workload);
    println!(
        "{:<30} {:>14} {:>14} {:>14} {:>4}  counters",
        "series", "median", "q1", "q3", "n"
    );
    for s in &r.series {
        let counters: Vec<String> = s.counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "{:<30} {:>14.3} {:>14.3} {:>14.3} {:>4}  {}",
            s.name,
            s.median,
            s.q1,
            s.q3,
            s.n,
            counters.join(" ")
        );
    }
    for bar in BARS.iter().filter(|b| b.record == r.id) {
        let verdict = match bar.judge(Some(r)) {
            Ok(()) => "pass".to_string(),
            Err(e) => format!("FAIL ({e})"),
        };
        println!("bar {} {} {}: {verdict}", bar.metric, bar.op, bar.threshold);
    }
}

/// Wall time of one call, in nanoseconds.
fn time_ns(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Per-pair samples of an A/B timing: both times and B's overhead over
/// A in percent (negative when B was faster).
fn overhead(a: f64, b: f64) -> Vec<f64> {
    vec![a, b, (b - a) * 100.0 / a]
}

fn hr(title: &str) {
    println!("\n==========================================================");
    println!("{title}");
    println!("==========================================================");
}

fn figures_table() -> Record {
    hr("Figures 1-13: worked-example reproduction (paper vs measured)");
    println!(
        "{:<8} {:<58} {:>10} {:>7} {:>6} {:>8} {:>9}",
        "figure", "claim", "reproduced", "rounds", "elim", "solves", "word-ops"
    );
    let mut series = Vec::new();
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
        series.push(
            Series::value(figure.id, time_ns as f64)
                .with("reproduced", u64::from(ok))
                .with("rounds", rounds)
                .with("eliminated", eliminated)
                .with_solver(&solver),
        );
    }
    Record {
        id: "figures".into(),
        workload: "the paper's worked examples, one driver run each (ns)".into(),
        series,
    }
}

/// The generator settings of every random program in the report.
fn gen_config(n: usize, seed: u64) -> GenConfig {
    GenConfig {
        seed,
        target_blocks: n,
        num_vars: 8,
        stmts_per_block: (1, 4),
        out_prob: 0.2,
        loop_prob: 0.3,
        max_depth: 12,
        expr_depth: 2,
        nondet: true,
    }
}

fn structured_of_size(n: usize, seed: u64) -> Program {
    structured(&gen_config(n, seed))
}

fn c1_c2_scaling(quick: bool, jobs: usize) -> Record {
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
    let mut series = Vec::new();
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
        series.push(
            Series::value(&format!("pde:{n}"), mp.time_ns as f64)
                .with("blocks", mp.blocks as u64)
                .with("stmts", mp.stmts as u64)
                .with_solver(&mp.stats.solver),
        );
        series.push(Series::value(&format!("pfe:{n}"), mf.time_ns as f64));
    }
    println!(
        "\nfitted growth exponents (time vs statements): pde ≈ n^{:.2}, pfe ≈ n^{:.2}",
        fit_loglog_slope(&pde_points),
        fit_loglog_slope(&pfe_points)
    );
    println!("paper expectation: pde ≲ 2, pfe ≲ 3 on structured inputs.");
    Record {
        id: "sweep".into(),
        workload: "pde and pfe per structured-program size, best of 3 (ns)".into(),
        series,
    }
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
        let prog = pdce_progen::tangled(&gen_config(n, 23), n / 4);
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
        "{:<28} {:>12} {:>14}",
        "analysis", "time (µs)", "evaluations"
    );
    for (name, t, evaluations) in [
        ("dead variables (bit-vector)", dead_t, dead.evaluations()),
        ("faint (block worklist)", faint_t, faint.evaluations()),
        ("pattern table + masks", table_t, table.len() as u64),
        (
            "local predicates (masks)",
            local_t,
            (mask_unions * words) as u64,
        ),
        ("delayability (bit-vector)", delay_t, delay.evaluations),
        ("du-chain graph build", du_t, du.du_edges),
    ] {
        let us = t.as_nanos() as f64 / 1e3;
        println!("{name:<28} {us:>12.1} {evaluations:>14}");
    }
    println!("\npaper: dead/delay are bit-vector problems; faint is not (Section 5.2),");
    println!("but its instruction rule is monotone on one row of variables, so it");
    println!("runs on the same block worklist: its evaluations are block evaluations.");
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

/// The analysis cache: CFG-view rebuilds avoided inside
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
    let mut impairments = 0u32;
    for seed in 0..20u64 {
        let original = structured_of_size(40, seed.wrapping_mul(101));
        let mut dce = original.clone();
        liveness_dce(&mut dce);
        let mut pde_p = original.clone();
        optimize(&mut pde_p, &PdceConfig::pde()).expect("driver terminates");
        let mut pfe_p = original.clone();
        optimize(&mut pfe_p, &PdceConfig::pfe()).expect("driver terminates");
        let mut naive = original.clone();
        split_critical_edges(&mut naive);
        naive_sink(&mut naive);

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

/// Optimizes a clone of every program in `progs` under `config`.
fn optimize_all(progs: &[Program], config: &PdceConfig) {
    for p in progs {
        optimize(&mut p.clone(), config).expect("driver terminates");
    }
}

/// One structured program per size in `sizes`, all from `seed`.
fn programs(sizes: &[usize], seed: u64) -> Vec<Program> {
    sizes.iter().map(|&n| structured_of_size(n, seed)).collect()
}

/// The tracing overhead, reported with no bar. Instrumentation cannot
/// be compiled out at run time, so disabled-mode cost is bounded by A/A
/// pairs of the same pde workload: the spread of their per-pair delta
/// is instrumentation cost plus timer noise. A second set of pairs
/// installs a buffering `Collector` on the B side to show what enabling
/// costs.
fn t1_tracing_overhead(quick: bool) -> (String, Vec<Series>) {
    hr("T1: tracing overhead (disabled A/A, collector installed; no bar)");
    let sizes: &[usize] = if quick { &[24, 48] } else { &[24, 48, 96, 192] };
    let progs = programs(sizes, 11);
    let disabled = || time_ns(|| optimize_all(&progs, &PdceConfig::pde()));
    let enabled = || {
        let _guard = pdce_trace::install(Rc::new(pdce_trace::Collector::new()));
        disabled()
    };
    let names = ["disabled_a_ns", "disabled_b_ns", "disabled_ab_delta_pct"];
    let mut series = paired("tracing", &names, disabled, disabled, overhead);
    let names = ["disabled_ns", "enabled_ns", "enabled_overhead_pct"];
    series.extend(paired("tracing", &names, disabled, enabled, overhead));
    (
        format!("pde over structured programs {sizes:?} per side"),
        series,
    )
}

/// The translation-validation overhead A/B: the same pde workload with
/// per-round semantic validation off and on (K seeded vectors through
/// the interpreter per round). One more validated run supplies the
/// resilience counters of the `on_ns` series.
fn t2_tv_overhead(quick: bool) -> (String, Vec<Series>) {
    hr("T2: translation-validation overhead A/B (bar <10%)");
    // Solver work grows faster than interpreter work with program
    // size, so the per-round validation tax is measured where the
    // optimizer actually spends time: mid-size programs. Tiny inputs
    // would overstate the relative cost of the K executions per round.
    let vectors = 2u32;
    let sizes: &[usize] = if quick { &[48, 96] } else { &[48, 96, 192] };
    let progs = programs(sizes, 17);
    let validated = PdceConfig::pde().with_validation(vectors);
    let mut series = paired(
        "tv",
        &["off_ns", "on_ns", "tv_overhead_pct"],
        || time_ns(|| optimize_all(&progs, &PdceConfig::pde())),
        || time_ns(|| optimize_all(&progs, &validated)),
        overhead,
    );
    for p in &progs {
        let stats = optimize(&mut p.clone(), &validated).expect("driver terminates");
        assert_eq!(
            stats.tv_rollbacks, 0,
            "the uninjected optimizer miscompiled"
        );
        for (name, v) in [
            ("rollbacks", stats.rollbacks),
            ("degradations", stats.degradations),
            ("tv_checks", stats.tv_checks),
            ("tv_rollbacks", stats.tv_rollbacks),
            ("budget_exhaustions", stats.budget_exhaustions),
        ] {
            *series[1].counters.entry(name.into()).or_default() += v;
        }
    }
    let workload =
        format!("pde over structured programs {sizes:?} per side, {vectors} vectors/round");
    (workload, series)
}

/// The shared-`CfgView` A/B (the CSR refactor's headline number): the
/// same analysis consumers with every one building its own flow-graph
/// view — the pre-CSR access pattern, where each layer recomputed
/// predecessors and traversal orders privately — versus one
/// revision-memoized CSR view shared through the [`AnalysisCache`].
fn t3_csr_sharing(quick: bool) -> (String, Vec<Series>) {
    hr("T3: shared CSR CfgView vs per-consumer rebuilds (bar ≥10%)");
    let sizes: &[usize] = if quick {
        &[24, 48, 96]
    } else {
        &[24, 48, 96, 192, 384]
    };
    let progs = programs(sizes, 11);
    // The adjacency/order-bound consumers the refactor unified — one
    // representative gen/kill solve (liveness, pdce-baselines), plus
    // dominators (pdce-baselines' ssa), reachability (pdce-ir
    // validation), the critical-edge table (edge splitting), natural
    // back edges and reducibility (the naive sinker / generators).
    // Heavier solver payloads (dead, faint, delayability) are excluded:
    // their fixpoint cost is independent of how the adjacency is
    // obtained and would only dilute the number this A/B isolates.
    // `view` is called once per consumer.
    fn consumers(prog: &Program, view: impl Fn() -> Rc<CfgView>) {
        std::hint::black_box(Liveness::compute(prog, &view()));
        std::hint::black_box(DomInfo::compute(&view()));
        let v = view();
        std::hint::black_box(pdce_ir::validate::reaches(&v, v.exit()));
        std::hint::black_box(view().critical_edges().len());
        std::hint::black_box(view().natural_back_edges());
        std::hint::black_box(view().is_reducible());
    }
    let series = paired(
        "csr",
        &["legacy_ns", "csr_ns", "csr_walltime_reduction_pct"],
        || {
            time_ns(|| {
                progs
                    .iter()
                    .for_each(|p| consumers(p, || Rc::new(CfgView::new(p))))
            })
        },
        || {
            time_ns(|| {
                for p in &progs {
                    let view = AnalysisCache::new().cfg(p);
                    consumers(p, || view.clone());
                }
            })
        },
        |a, b| vec![a, b, (a - b) * 100.0 / a],
    );
    let workload = format!(
        "6 analyses (liveness, dominators, reachability, critical edges, back edges, \
         reducibility) over structured programs {sizes:?} per side"
    );
    (workload, series)
}

/// The metrics-plane section. Three parts:
///
/// 1. **Overhead A/B** — a warm serve replay of T5's request corpus,
///    one `respond_batch(1, ..)` per request, with registry recording
///    suppressed via the runtime gate and enabled. This path records
///    into the registry on every request: the request-latency and
///    batch-size histograms and the pool's counters. Every answer is a
///    cache hit, so the recording is as large a share of the request as
///    it gets.
/// 2. **Snapshot stability** — the structured corpus optimized through
///    the `pdce-par` pool at `jobs=1` and `jobs=4`; the optimizer
///    families rendered from the returned stats must have a
///    byte-identical `prometheus_deterministic()` exposition
///    (deterministic families count logical work, not wall time, and
///    sum commutatively across items).
/// 3. **Driver latency quantiles** — each `optimize` call timed over a
///    slice of the corpus, pde and then pfe on its output, one
///    `pass_latency:<mode>` series per mode.
fn t4_metrics_plane(quick: bool) -> (String, Vec<Series>) {
    hr("T4: always-on metrics plane (overhead bar <2%, stable snapshots)");
    let requests = request_corpus(if quick { 60 } else { 200 }, 10, 4, 7_000);
    let server = std::sync::Arc::new(pdce_serve::Server::new(pdce_serve::ServeOptions {
        wall_ms: Some(benchjson::SERVE_WALL_MS),
        ..Default::default()
    }));
    let replays = WARM_LATENCIES.div_ceil(requests.len());
    let on = || {
        time_ns(|| {
            for _ in 0..replays {
                for line in &requests {
                    server.respond_batch(1, std::slice::from_ref(line));
                }
            }
        })
    };
    // The first replay computes and caches every answer, so each timed
    // side answers hits only.
    on();
    let mut series = paired(
        "metrics",
        &["off_ns", "on_ns", "metrics_overhead_pct"],
        || pdce_trace::metrics::suppressed(on),
        on,
        overhead,
    );

    let corpus_n: u64 = if quick { 40 } else { 200 };
    let corpus: Vec<Program> = (0..corpus_n)
        .map(|i| structured_of_size(24 + (i as usize % 5) * 12, 1_000 + i))
        .collect();
    let deterministic_series = |jobs: usize| {
        let config = PdceConfig::pde();
        let mut runs = RunTotals::default();
        for run in pdce_par::map_indexed(jobs, &corpus, |_, p| {
            let stats = optimize(&mut p.clone(), &config).expect("driver terminates");
            RunTotals::of(&config, &stats)
        }) {
            runs.add(&run);
        }
        let mut snap = Snapshot::default();
        runs.render(&mut snap);
        snap.prometheus_deterministic()
    };
    let stable = deterministic_series(1) == deterministic_series(4);
    series.push(Series::value(
        "snapshot_stable",
        f64::from(u8::from(stable)),
    ));

    let modes = [("pde", PdceConfig::pde()), ("pfe", PdceConfig::pfe())];
    let mut latencies = [Vec::new(), Vec::new()];
    for p in corpus.iter().take(if quick { 10 } else { 30 }) {
        let mut prog = p.clone();
        for ((_, config), samples) in modes.iter().zip(&mut latencies) {
            samples.push(time_ns(|| {
                optimize(&mut prog, config).expect("driver terminates");
            }));
        }
    }
    for ((mode, _), mut samples) in modes.iter().zip(latencies) {
        samples.sort_by(f64::total_cmp);
        let rank = |q: f64| samples[((q * samples.len() as f64).ceil() as usize).max(1) - 1] as u64;
        series.push(
            Series::of(&format!("pass_latency:{mode}"), &samples)
                .with("p90_ns", rank(0.9))
                .with("p99_ns", rank(0.99))
                .with("max_ns", rank(1.0)),
        );
    }
    let workload = format!(
        "{replays} warm serve replay(s) of {} requests per side; stability over a \
         {corpus_n}-CFG corpus at jobs 1 vs 4",
        requests.len()
    );
    (workload, series)
}

/// Warm latencies T5 times per side run: the warm replay repeats until
/// it has at least this many, so rank ⌈0.99·n⌉ leaves at least 10
/// samples beyond it and `p99_ns` judges a tail, not the slowest request.
const WARM_LATENCIES: usize = 1000;

/// The `pdce serve` daemon: pairs of a cold replay (a fresh server, every
/// request computed) and a warm side (a server whose cache already holds
/// the corpus, replaying it until [`WARM_LATENCIES`] requests are timed)
/// of the same requests. Throughput and latency quantiles come from the
/// warm side, whose wall time is the mean over its replays; every
/// response of either side must equal the first cold replay's.
///
/// A second set of pairs prices dispatch: the warm replay through
/// `respond_line` (the request path alone) against the same replay
/// through `respond_batch(1, ..)` (one supervised batch per request, as
/// `pdce serve` answers a stdio request). `dispatch_ns` is their
/// difference per request.
fn t5_serving(quick: bool) -> (String, Vec<Series>) {
    hr("T5: pdce serve throughput/latency (cold vs warm cache)");
    let corpus_n: u64 = if quick { 60 } else { 200 };
    let requests = request_corpus(corpus_n, 10, 4, 7_000);
    let server = || {
        pdce_serve::Server::new(pdce_serve::ServeOptions {
            wall_ms: Some(benchjson::SERVE_WALL_MS),
            ..Default::default()
        })
    };
    let warm = std::sync::Arc::new(server());
    let (_, _, reference) = replay(&warm, &requests);
    // Each side checks its answers against the first cold replay's.
    let identical = std::cell::Cell::new(true);
    let side = |server: &pdce_serve::Server| {
        let (ns, lat, responses) = replay(server, &requests);
        identical.set(identical.get() && responses == reference);
        (ns, lat)
    };
    let warm_replays = WARM_LATENCIES.div_ceil(requests.len());
    let warm_side = || {
        let (mut ns, mut lat) = (0.0, Vec::with_capacity(warm_replays * requests.len()));
        for _ in 0..warm_replays {
            let (replay_ns, replay_lat) = side(&warm);
            ns += replay_ns;
            lat.extend(replay_lat);
        }
        (ns / warm_replays as f64, lat)
    };
    let names = [
        "cold_ns",
        "warm_ns",
        "warm_speedup_pct",
        "req_per_sec",
        "p50_ns",
        "p99_ns",
    ];
    let mut series = paired(
        "serve",
        &names,
        || side(&server()),
        warm_side,
        |(cold_ns, _), (warm_ns, mut lat)| {
            lat.sort_by(f64::total_cmp);
            let rank = |q: f64| lat[((lat.len() as f64 * q).ceil() as usize).max(1) - 1];
            let speedup = (cold_ns - warm_ns) * 100.0 / cold_ns;
            let req_per_sec = corpus_n as f64 * 1e9 / warm_ns;
            vec![
                cold_ns,
                warm_ns,
                speedup,
                req_per_sec,
                rank(0.5),
                rank(0.99),
            ]
        },
    );
    let batch_side = || {
        let total = Instant::now();
        let responses: Vec<String> = (requests.iter())
            .flat_map(|line| warm.respond_batch(1, std::slice::from_ref(line)))
            .collect();
        let ns = total.elapsed().as_nanos() as f64;
        identical.set(identical.get() && responses == reference);
        ns
    };
    series.extend(paired(
        "serve",
        &["dispatch_line_ns", "dispatch_batch_ns", "dispatch_ns"],
        || side(&warm).0,
        batch_side,
        |line_ns, batch_ns| vec![line_ns, batch_ns, (batch_ns - line_ns) / corpus_n as f64],
    ));
    let identical = Series::value("warm_identical", f64::from(u8::from(identical.get())));
    series.push(
        identical
            .with("requests", corpus_n)
            .with("warm_latencies", (warm_replays * requests.len()) as u64),
    );
    let workload = format!(
        "{corpus_n} small structured programs through the serve path (--wall-ms {}), \
         fresh cold server vs cache-resident warm server",
        benchjson::SERVE_WALL_MS
    );
    (workload, series)
}

/// The WAL + crash-recovery drill behind the self-healing serving
/// plane: first an A/B that prices the journal (cold replays through an
/// in-memory cache vs a journaled on-disk one), then a kill -9
/// rehearsal — replay the corpus through a journaled server, read its
/// `wal_appends` off the `{"op":"health"}` line, and *drop the server
/// without any clean save* so the append-only log is the only survivor.
/// A second server recovers from that log and replays the same corpus;
/// every request must come back and every answer must match its
/// pre-crash bytes.
fn t7_recovery(quick: bool) -> (String, Vec<Series>) {
    hr("T7: WAL overhead + crash-recovery drill (bars: <5%, lose nothing)");
    // Mid-sized programs: the WAL-overhead claim is per *served
    // request*, so each request must carry a realistic optimize cost —
    // against trivial programs the fixed journal append would dominate
    // and the A/B would price the fsync cadence, not the serving plane.
    let corpus_n: u64 = if quick { 40 } else { 120 };
    let requests = request_corpus(corpus_n, 24, 8, 9_000);
    let scratch = std::env::temp_dir().join(format!("pdce-bench-wal-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create WAL scratch dir");
    let journaled = |name: &str| {
        pdce_serve::Server::new(pdce_serve::ServeOptions {
            cache_path: Some(scratch.join(name)),
            ..Default::default()
        })
    };

    // Journaling costs only on the cold path (the only path that
    // appends), so both sides start from fresh caches. The journaled
    // side is split into what the log spent appending, fsyncing and
    // compacting inside its timed replay, and the construction of its
    // server (fresh file, header, `sync_data`), which is timed apart:
    // it precedes the replay and is not part of `wal_on_ns`.
    let mut rep = 0;
    let mut series = paired(
        "recovery",
        &[
            "wal_off_ns",
            "wal_on_ns",
            "wal_overhead_pct",
            "wal_on_construct_ns",
            "wal_on_append_ns",
            "wal_on_fsync_ns",
            "wal_on_compact_ns",
        ],
        || replay(&pdce_serve::Server::new(Default::default()), &requests).0,
        || {
            rep += 1;
            let start = Instant::now();
            let server = journaled(&format!("ab-{rep}.cache"));
            let construct_ns = start.elapsed().as_nanos() as f64;
            (
                replay(&server, &requests).0,
                (construct_ns, server.wal_time()),
            )
        },
        |off, (on, (construct_ns, wal))| {
            let mut row = overhead(off, on);
            row.extend([
                construct_ns,
                wal.appends_ns as f64,
                wal.fsyncs_ns as f64,
                wal.compactions_ns as f64,
            ]);
            row
        },
    );

    let pre_server = journaled("drill.cache");
    let (_, _, pre) = replay(&pre_server, &requests);
    let health = pre_server.respond_line("{\"op\":\"health\"}");
    let appends = health.and_then(|h| {
        pdce_trace::json::parse(&h)
            .ok()?
            .get("wal_appends")?
            .as_num()
    });
    drop(pre_server);
    let post_server = journaled("drill.cache");
    let recovered = post_server.cache_load_report().loaded as u64;
    let post: Vec<Option<String>> = requests
        .iter()
        .map(|l| post_server.respond_line(l))
        .collect();
    let lost = post.iter().filter(|r| r.is_none()).count();
    let identical = post.into_iter().eq(pre.into_iter().map(Some));
    let _ = std::fs::remove_dir_all(&scratch);
    series.push(
        Series::value("requests_lost", lost as f64)
            .with("requests", corpus_n)
            .with(
                "wal_appends",
                appends.expect("health reports wal_appends") as u64,
            )
            .with("wal_recovered", recovered),
    );
    series.push(Series::value(
        "warm_identical_after_crash",
        f64::from(u8::from(identical)),
    ));
    let workload = format!(
        "{corpus_n} small structured programs: cold replays with the cache in memory vs \
         journaled; then journaled replay, drop without save, recover and replay"
    );
    (workload, series)
}

/// `n` small structured programs (`base + (i % 5)·step` blocks, seeds
/// from `seed`), each encoded once as a pde request so every replay sends
/// byte-identical lines.
fn request_corpus(n: u64, base: usize, step: usize, seed: u64) -> Vec<String> {
    (0..n)
        .map(|i| {
            let prog = structured_of_size(base + (i as usize % 5) * step, seed + i);
            let text = pdce_ir::printer::print_program(&prog);
            pdce_serve::protocol::encode_request(None, &text, pdce_serve::Mode::Pde)
        })
        .collect()
}

/// Replays `requests` through the per-request serving path: the wall
/// time, each request's latency, and the responses.
fn replay(server: &pdce_serve::Server, requests: &[String]) -> (f64, Vec<f64>, Vec<String>) {
    let mut lat = Vec::with_capacity(requests.len());
    let mut responses = Vec::with_capacity(requests.len());
    let total = Instant::now();
    for line in requests {
        let t = Instant::now();
        responses.push(server.respond_line(line).expect("one response per request"));
        lat.push(t.elapsed().as_nanos() as f64);
    }
    (total.elapsed().as_nanos() as f64, lat, responses)
}
