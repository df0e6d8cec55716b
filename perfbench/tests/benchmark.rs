//! The benchmark's own tests. The serve tests start the real `pdce`
//! binary: build it first (`cargo build --release --bin pdce` at the
//! repository root, or any `perfbench/run.py` invocation), or point
//! `PDCE_BIN` at it.

use std::path::PathBuf;

use perfbench::corpus::{cold_stream, mixed_stream, opt_corpus, Kind};
use perfbench::measure::Outcome;
use perfbench::workloads::{run, RunArgs, Workload};

fn repo() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits in the repository root")
        .to_path_buf()
}

fn pdce_bin() -> PathBuf {
    if let Some(p) = std::env::var_os("PDCE_BIN") {
        return PathBuf::from(p);
    }
    let candidates = [
        std::env::var_os("CARGO_TARGET_DIR").map(|d| PathBuf::from(d).join("release/pdce")),
        Some(repo().join(".bench_build/release/pdce")),
        Some(repo().join("target/release/pdce")),
    ];
    candidates
        .into_iter()
        .flatten()
        .map(|p| if p.is_relative() { repo().join(p) } else { p })
        .find(|p| p.exists())
        .expect("no pdce binary: run `cargo build --release --bin pdce` or set PDCE_BIN")
}

fn run_workload(name: &str, workload: Workload, seconds: f64, trace: bool) -> Outcome {
    let tmp = repo().join(".bench_tmp").join(format!("test-{name}"));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("scratch directory");
    let outcome = run(&RunArgs {
        workload,
        seed: 7,
        seconds,
        trace,
        pdce_bin: pdce_bin(),
        tmp: tmp.clone(),
        out_dir: tmp.join("out"),
    })
    .expect("the run completes");
    let _ = std::fs::remove_dir_all(&tmp);
    assert!(outcome.correct, "{name}: {:?}", outcome.notes);
    assert_eq!(outcome.failed, 0, "{name}");
    outcome
}

fn metric(o: &Outcome, name: &str) -> f64 {
    o.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .value
}

fn stream_bytes(seed: u64) -> Vec<String> {
    let mut lines = Vec::new();
    let corpus = opt_corpus(seed);
    lines.extend(corpus.programs.iter().take(16).cloned());
    lines.extend(corpus.ops.iter().take(64).map(|op| format!("{op:?}")));
    for stream in [cold_stream(seed, 4, 40), mixed_stream(seed, 20, 400)] {
        for (j, s) in stream.warmup.iter().chain(&stream.measured).enumerate() {
            lines.push(stream.line(s, &format!("r{j}")));
        }
    }
    lines
}

#[test]
fn a_seed_fixes_the_request_stream() {
    let a = stream_bytes(3);
    assert_eq!(a, stream_bytes(3), "same seed, same bytes");
    let b = stream_bytes(4);
    assert_eq!(a.len(), b.len());
    let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
    assert!(differing > a.len() / 2, "another seed, another stream");
}

#[test]
fn the_mixed_stream_holds_its_target_shares_for_every_seed() {
    for seed in [11, 12] {
        let stream = mixed_stream(seed, 400, 20_000);
        let n = stream.measured.len() as f64;
        let share = |k: Kind| stream.measured.iter().filter(|s| s.kind == k).count() as f64 / n;
        assert!((share(Kind::Verbatim) - 0.85).abs() < 1e-9);
        assert!((share(Kind::Reformatted) - 0.10).abs() < 1e-9);
        assert!((share(Kind::First) - 0.05).abs() < 1e-9);
    }
}

#[test]
fn a_shorter_mixed_stream_is_a_prefix_of_a_longer_one() {
    let line = |s: &perfbench::corpus::ServeStream, j: usize| s.line(&s.measured[j], "r");
    let short = mixed_stream(5, 40, 1_000);
    let long = mixed_stream(5, 40, 3_000);
    for j in 0..short.measured.len() {
        assert_eq!(line(&short, j), line(&long, j), "request {j}");
    }
}

#[test]
fn serve_cold_misses_on_every_measured_request() {
    let o = run_workload("cold", Workload::ServeCold, 1.0, false);
    let health = o.health.as_ref().expect("serve runs report health");
    let measured = o.attempted - perfbench::workloads::COLD_WARMUP as u64;
    assert!(measured > 100);
    assert_eq!(health.get("cache_misses"), measured as f64);
    assert_eq!(health.get("cache_hits"), 0.0);
}

#[test]
fn serve_mixed_realizes_its_mix_and_evicts_and_compacts() {
    let o = run_workload("mixed", Workload::ServeMixed, 4.0, true);
    // Evicted working-set entries turn a few repeats into computes, so
    // the realized shares sit a few points off the drawn ones.
    let alias = metric(&o, "cache.alias_hit_ratio");
    let canonical = metric(&o, "cache.canonical_hit_ratio");
    let computed = metric(&o, "cache.computed_share");
    assert!((alias - 0.85).abs() < 0.05, "alias hits {alias}");
    assert!(
        (canonical - 0.10).abs() < 0.03,
        "canonical hits {canonical}"
    );
    assert!((computed - 0.05).abs() < 0.05, "computed {computed}");
    assert!((alias + canonical + computed - 1.0).abs() < 1e-9);
    assert!(metric(&o, "cache.evictions_per_op") > 0.0);
    // A compaction needs several hundred WAL appends, and about one
    // request in six appends: a window long enough on a loaded machine.
    let e2e = run_workload("mixed-e2e", Workload::ServeMixed, 12.0, false);
    let health = e2e.health.as_ref().expect("serve runs report health");
    assert!(health.get("wal_compactions") > 0.0);
}

#[test]
fn replicas_are_byte_identical_on_a_small_seed() {
    // `run_workload` asserts `correct` and zero failures: every replica
    // answer equalled the real call's.
    for (name, w) in [
        ("replica-opt", Workload::OptLarge),
        ("replica-cold", Workload::ServeCold),
    ] {
        let o = run_workload(name, w, 3.0, true);
        assert!(metric(&o, "trace.ops") >= 5.0, "{name}");
    }
}

/// The `"name"` values of one top-level array of BENCHMARK.json.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(repo().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("array end")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let names = |o: &Outcome| {
        o.metrics
            .iter()
            .map(|m| m.name.to_string())
            .collect::<Vec<_>>()
    };
    let e2e = run_workload("names-e2e", Workload::OptLarge, 0.5, false);
    assert_eq!(names(&e2e), declared("end_to_end"));
    let traced = run_workload("names-trace", Workload::OptLarge, 0.5, true);
    assert_eq!(names(&traced), declared("per_layer"));
    // BENCHMARK.json gates a subset of the workloads the command knows.
    for name in declared("workloads") {
        assert!(Workload::parse(&name).is_some(), "unknown workload {name}");
    }
}
