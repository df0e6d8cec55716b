//! The hand-written corpus (`corpus/*.pdce`): realistic programs run
//! through every optimizer with full guarantee checking — parse, all
//! four driver modes, hoisting, LCM, simplification; verify
//! semantics, per-path dominance, idempotence, and print/parse
//! round-trips for each.

use pdce::baselines::hoist_assignments;
use pdce::core::better::{check_improvement, BetterOptions};
use pdce::core::driver::{optimize, PdceConfig};
use pdce::ir::edgesplit::split_critical_edges;
use pdce::ir::interp::{run, Env, ExecLimits, ReplayOracle, SeededOracle, Trace};
use pdce::ir::parser::parse;
use pdce::ir::printer::canonical_string;
use pdce::ir::{simplify_cfg, Program};
use pdce::lcm::lazy_code_motion;

const INPUTS: [(&str, i64); 6] = [
    ("a", 54),
    ("b", 24),
    ("frame", 3),
    ("input", 7),
    ("c", -2),
    ("live", 0),
];

fn corpus() -> Vec<(String, Program)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("corpus directory exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("pdce") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("corpus file readable");
        let prog = parse(&src).unwrap_or_else(|e| panic!("{} does not parse: {e}", path.display()));
        out.push((
            path.file_name().unwrap().to_string_lossy().into_owned(),
            prog,
        ));
    }
    assert!(out.len() >= 6, "corpus went missing?");
    out.sort_by(|x, y| x.0.cmp(&y.0));
    out
}

fn reference_run(prog: &Program, seed: u64) -> Trace {
    let mut env = Env::with_values(prog, &INPUTS);
    let mut oracle = SeededOracle::new(seed);
    run(
        prog,
        &mut env,
        &mut oracle,
        ExecLimits {
            max_block_visits: 10_000,
        },
    )
}

fn replay(prog: &Program, decisions: Vec<usize>) -> Trace {
    let mut env = Env::with_values(prog, &INPUTS);
    let mut oracle = ReplayOracle::new(decisions);
    run(
        prog,
        &mut env,
        &mut oracle,
        ExecLimits {
            max_block_visits: 10_000,
        },
    )
}

fn assert_equivalent(name: &str, original: &Program, optimized: &Program, pass: &str) {
    for seed in [1u64, 7, 123] {
        let t0 = reference_run(original, seed);
        let t1 = replay(optimized, t0.decisions.clone());
        assert_eq!(
            t0.outputs, t1.outputs,
            "{name}: {pass} changed semantics (seed {seed})"
        );
    }
}

#[test]
fn drivers_on_corpus() {
    for (name, prog) in corpus() {
        for (label, config) in [
            ("dce", PdceConfig::dce_only()),
            ("fce", PdceConfig::fce_only()),
            ("pde", PdceConfig::pde()),
            ("pfe", PdceConfig::pfe()),
        ] {
            let mut opt = prog.clone();
            let stats = optimize(&mut opt, &config).unwrap();
            assert!(!stats.truncated);
            assert_equivalent(&name, &prog, &opt, label);
            let report = check_improvement(&prog, &opt, &BetterOptions::default());
            assert!(
                report.holds(),
                "{name}/{label}: dominance violated: {:#?}",
                report.violations
            );
            // Idempotence.
            let once = canonical_string(&opt);
            optimize(&mut opt, &config).unwrap();
            assert_eq!(
                canonical_string(&opt),
                once,
                "{name}/{label} not a fixpoint"
            );
        }
    }
}

#[test]
fn auxiliary_passes_on_corpus() {
    for (name, prog) in corpus() {
        // Hoisting.
        let mut hoisted = prog.clone();
        split_critical_edges(&mut hoisted);
        hoist_assignments(&mut hoisted).unwrap();
        let mut split_ref = prog.clone();
        split_critical_edges(&mut split_ref);
        assert_equivalent(&name, &split_ref, &hoisted, "hoist");

        // LCM.
        let mut pre = prog.clone();
        split_critical_edges(&mut pre);
        lazy_code_motion(&mut pre).unwrap();
        assert_equivalent(&name, &split_ref, &pre, "lcm");
    }
}

#[test]
fn full_stack_on_corpus() {
    for (name, prog) in corpus() {
        let mut opt = prog.clone();
        split_critical_edges(&mut opt);
        lazy_code_motion(&mut opt).unwrap();
        optimize(&mut opt, &PdceConfig::pfe()).unwrap();
        simplify_cfg(&mut opt);
        pdce::ir::validate::validate(&opt)
            .unwrap_or_else(|e| panic!("{name}: invalid after full stack: {e}"));
        assert_equivalent(&name, &prog, &opt, "full stack");
        // The print/parse round trip survives the full stack.
        let printed = pdce::ir::printer::print_program(&opt);
        let reparsed = parse(&printed).unwrap();
        assert_eq!(
            canonical_string(&opt),
            canonical_string(&reparsed),
            "{name}"
        );
    }
}

/// A deterministic input vector for the corpus's free variables,
/// derived from `seed` (vector 0 is the historical `INPUTS`).
fn seeded_vector(seed: u64) -> [(&'static str, i64); 6] {
    if seed == 0 {
        return INPUTS;
    }
    let mut rng = pdce_rng::Rng::new(0x1d_5eed ^ seed);
    ["a", "b", "frame", "input", "c", "live"]
        .map(|name| (name, (rng.next_u64() % 201) as i64 - 100))
}

fn run_with(prog: &Program, inputs: &[(&str, i64)], seed: u64) -> Trace {
    let mut env = Env::with_values(prog, inputs);
    let mut oracle = SeededOracle::new(seed);
    run(
        prog,
        &mut env,
        &mut oracle,
        ExecLimits {
            max_block_visits: 10_000,
        },
    )
}

fn replay_with(prog: &Program, inputs: &[(&str, i64)], decisions: Vec<usize>) -> Trace {
    let mut env = Env::with_values(prog, inputs);
    let mut oracle = ReplayOracle::new(decisions);
    run(
        prog,
        &mut env,
        &mut oracle,
        ExecLimits {
            max_block_visits: 10_000,
        },
    )
}

/// Interpreter equivalence of `optimized` against `original` under
/// sixteen seeded input vectors (decision streams recorded and
/// replayed, so nondet branches line up).
fn assert_equivalent_16(name: &str, original: &Program, optimized: &Program, pass: &str) {
    for vseed in 0..16u64 {
        let inputs = seeded_vector(vseed);
        let t0 = run_with(original, &inputs, 11 + vseed);
        let t1 = replay_with(optimized, &inputs, t0.decisions.clone());
        assert_eq!(
            t0.outputs, t1.outputs,
            "{name}: {pass} changed semantics (vector {vseed})"
        );
        assert!(
            t1.executed_assignments <= t0.executed_assignments,
            "{name}: {pass} impaired vector {vseed}"
        );
    }
}

/// Differential batch oracle: `pdce opt` over the whole corpus emits
/// byte-identical stdout sequentially and with `--jobs 4`, and every
/// per-file section is interpreter-equivalent to its source under
/// sixteen seeded input vectors. This is the end-to-end check that the
/// parallel driver shards work without reordering or cross-talk.
#[test]
fn batch_cli_is_deterministic_and_semantics_preserving() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("pdce"))
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    files.sort();

    for mode in ["pde", "pfe"] {
        let batch = |jobs: &str| {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_pdce"))
                .args(["opt", "--mode", mode, "--jobs", jobs])
                .args(&files)
                .output()
                .expect("binary runs");
            assert!(
                out.status.success(),
                "batch --mode {mode} --jobs {jobs} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8(out.stdout).expect("utf-8 stdout")
        };
        let sequential = batch("1");
        let sharded = batch("4");
        assert_eq!(
            sequential, sharded,
            "--mode {mode}: stdout must not depend on --jobs"
        );

        // Split the batch output back into per-file programs.
        let mut sections: Vec<(String, String)> = Vec::new();
        for line in sequential.lines() {
            if let Some(path) = line
                .strip_prefix("// ==== ")
                .and_then(|r| r.strip_suffix(" ===="))
            {
                sections.push((path.to_owned(), String::new()));
            } else {
                let (_, body) = sections.last_mut().expect("header precedes body");
                body.push_str(line);
                body.push('\n');
            }
        }
        let paths: Vec<&String> = sections.iter().map(|(p, _)| p).collect();
        assert_eq!(
            paths,
            files.iter().collect::<Vec<_>>(),
            "sections in argument order"
        );

        for (path, body) in &sections {
            let src = std::fs::read_to_string(path).expect("corpus file readable");
            let original = parse(&src).expect("corpus parses");
            let optimized =
                parse(body).unwrap_or_else(|e| panic!("{path}: batch output does not parse: {e}"));
            assert_equivalent_16(path, &original, &optimized, &format!("batch {mode}"));
        }
    }
}

/// The same sixteen-vector oracle on the in-process (sequential
/// library) path, for every driver mode — the reference the batch CLI
/// is compared against.
#[test]
fn drivers_preserve_semantics_under_seeded_vectors() {
    for (name, prog) in corpus() {
        for (label, config) in [("pde", PdceConfig::pde()), ("pfe", PdceConfig::pfe())] {
            let mut opt = prog.clone();
            optimize(&mut opt, &config).unwrap();
            assert_equivalent_16(&name, &prog, &opt, label);
        }
    }
}

/// Spot-check the headline effects per corpus file.
#[test]
fn corpus_effects() {
    let progs: std::collections::HashMap<String, Program> = corpus().into_iter().collect();

    // gcd: pfe empties the scratch/mirror chain from the loop; pde keeps
    // at least `trace` computable on the noisy path.
    let mut gcd = progs["gcd.pdce"].clone();
    let stats = optimize(&mut gcd, &PdceConfig::pfe()).unwrap();
    assert!(stats.eliminated_assignments >= 2, "scratch & mirror go");

    // state_machine: `render` leaves the dispatch header.
    let mut sm = progs["state_machine.pdce"].clone();
    optimize(&mut sm, &PdceConfig::pde()).unwrap();
    let header = sm.block_by_name("loop").unwrap();
    assert!(
        sm.block(header)
            .stmts
            .iter()
            .all(|s| pdce::ir::printer::print_stmt(&sm, s) != "render := frame * 17 + ticks"),
        "render must not be recomputed every tick"
    );

    // faint_webs: only pfe clears the u/v/w web.
    let mut fw_pde = progs["faint_webs.pdce"].clone();
    optimize(&mut fw_pde, &PdceConfig::pde()).unwrap();
    let mut fw_pfe = progs["faint_webs.pdce"].clone();
    optimize(&mut fw_pfe, &PdceConfig::pfe()).unwrap();
    assert!(fw_pfe.num_assignments() + 3 <= fw_pde.num_assignments());

    // accumulators: pde pushes each accumulator... they are loop-carried,
    // so they stay; but per-path dominance already checked. Just assert
    // both survive (they are genuinely live).
    let mut acc = progs["accumulators.pdce"].clone();
    optimize(&mut acc, &PdceConfig::pfe()).unwrap();
    assert!(acc.num_assignments() >= 5);
}
