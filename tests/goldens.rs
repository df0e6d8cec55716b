//! Golden-snapshot tests: the canonical optimized form of every corpus
//! program, per driver mode, and its canonical form after each
//! comparison transform, pinned under `tests/goldens/`.
//!
//! These catch *any* output drift — a solver-scheduling change, a
//! tie-break reorder, a printer tweak — that the semantic oracles would
//! accept. The snapshots are a property of the paper's fixpoints, so the
//! executable specification's driver (`tests/support/spec.rs`) must
//! reproduce them too.
//!
//! To refresh after an intentional change:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test goldens
//! ```

mod support;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use pdce::baselines::lcm::lazy_code_motion;
use pdce::baselines::ssa::ssa_dce;
use pdce::baselines::{copy_propagate, duchain_dce, hoist_assignments, naive_sink};
use pdce::core::driver::{optimize, PdceConfig};
use pdce::ir::edgesplit::split_critical_edges;
use pdce::ir::parser::parse;
use pdce::ir::printer::canonical_string;
use pdce::ir::Program;

fn corpus_files() -> Vec<PathBuf> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("corpus directory exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("pdce"))
        .collect();
    assert!(out.len() >= 6, "corpus went missing?");
    out.sort();
    out
}

fn golden_dir() -> PathBuf {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens")).to_path_buf()
}

fn updating() -> bool {
    std::env::var_os("UPDATE_GOLDENS").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Compares `got` against `tests/goldens/<name>`, or rewrites the file
/// when `UPDATE_GOLDENS=1` is set.
fn check_golden(name: &str, got: &str) {
    let path = golden_dir().join(name);
    if updating() {
        std::fs::create_dir_all(golden_dir()).expect("goldens dir");
        std::fs::write(&path, got).expect("golden writable");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden {}; refresh with UPDATE_GOLDENS=1 cargo test --test goldens",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "snapshot drift in {name}; if intentional, refresh with \
         UPDATE_GOLDENS=1 cargo test --test goldens"
    );
}

#[test]
fn corpus_optimized_snapshots() {
    for file in corpus_files() {
        let stem = file.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&file).expect("corpus file readable");
        for (label, config) in [("pde", PdceConfig::pde()), ("pfe", PdceConfig::pfe())] {
            let mut prog = parse(&src).expect("corpus parses");
            optimize(&mut prog, &config).unwrap();
            check_golden(&format!("{stem}.{label}.golden"), &canonical_string(&prog));
        }
    }
}

/// The spec driver reproduces every snapshot: goldens are a property
/// of the fixpoints, not of the engines used to reach them.
#[test]
fn spec_driver_reproduces_the_snapshots() {
    use support::spec::{optimize, Mode};
    for file in corpus_files() {
        let stem = file.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&file).expect("corpus file readable");
        for (label, mode) in [("pde", Mode::Dead), ("pfe", Mode::Faint)] {
            let mut prog = parse(&src).expect("corpus parses");
            optimize(&mut prog, mode);
            check_golden(&format!("{stem}.{label}.golden"), &canonical_string(&prog));
        }
    }
}

/// The comparison transforms — lazy code motion and assignment hoisting
/// (each after edge splitting), naive sinking, copy propagation and the
/// two marking DCEs — pinned byte for byte in one file, a
/// `// ==== <stem> <transform> ====` section per corpus program and
/// transform. A transform that rejects a program records its error.
#[test]
fn corpus_comparison_snapshots() {
    type Transform = fn(&mut Program) -> Result<(), String>;
    let transforms: [(&str, Transform); 6] = [
        ("lazy_code_motion", |p| {
            split_critical_edges(p);
            lazy_code_motion(p).map(drop).map_err(|e| e.to_string())
        }),
        ("hoist_assignments", |p| {
            split_critical_edges(p);
            hoist_assignments(p).map(drop).map_err(|e| e.to_string())
        }),
        ("naive_sink", |p| {
            naive_sink(p);
            Ok(())
        }),
        ("copy_propagate", |p| {
            copy_propagate(p);
            Ok(())
        }),
        ("ssa_dce", |p| {
            ssa_dce(p);
            Ok(())
        }),
        ("duchain_dce", |p| {
            duchain_dce(p);
            Ok(())
        }),
    ];
    let mut got = String::new();
    for file in corpus_files() {
        let stem = file.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&file).expect("corpus file readable");
        for (label, transform) in transforms {
            let mut prog = parse(&src).expect("corpus parses");
            let section = match transform(&mut prog) {
                Ok(()) => canonical_string(&prog),
                Err(e) => format!("error: {e}"),
            };
            writeln!(got, "// ==== {stem} {label} ====\n{section}").unwrap();
        }
    }
    check_golden("baselines.golden", &got);
}
