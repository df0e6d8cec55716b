//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! `[--pdce-bin PATH] [--tmp-dir DIR] [--out-dir DIR]`
//!
//! Every flag before the brackets is required; `run.py` supplies the
//! default seed.
//!
//! Prints notes, then one JSON result line. Exits 0 with a result, 2
//! on a usage error and 1 when the run could not be carried out.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::workloads::{run, RunArgs, Workload};

fn parse_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut pdce_bin = PathBuf::from(".bench_build/release/pdce");
    let mut tmp = PathBuf::from(".bench_tmp");
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--pdce-bin" => pdce_bin = PathBuf::from(value),
            "--tmp-dir" => tmp = PathBuf::from(value),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(RunArgs {
        workload: workload.ok_or("missing --workload (opt_large|serve_cold|serve_mixed)")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace (0|1)")?,
        pdce_bin,
        // A private scratch directory per process, removed at exit.
        tmp: tmp.join(format!("run-{}", std::process::id())),
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run_args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run_args.tmp) {
        eprintln!("perfbench: cannot create {}: {e}", run_args.tmp.display());
        return ExitCode::FAILURE;
    }
    let result = run(&run_args);
    let _ = std::fs::remove_dir_all(&run_args.tmp);
    match result {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            println!("{}", outcome.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", run_args.workload.name());
            ExitCode::FAILURE
        }
    }
}
