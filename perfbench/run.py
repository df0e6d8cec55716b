#!/usr/bin/env python3
"""Builds the pdce binary and the benchmark from source, then runs one
workload.

    python3 perfbench/run.py --workload <opt_large|serve_cold|serve_mixed>
        [--seed <n> | --default-seed <n>] --seconds <s> --trace <0|1>

Run it from the repository root. Build output goes to stderr and into
$CARGO_TARGET_DIR (default: .bench_build); the benchmark's notes and its
final JSON result line go to stdout. Scratch caches live under
.bench_tmp and span files under .bench_out, both removed or overwritten
by later runs.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for needed in ("Cargo.toml", "src/bin/pdce.rs", "crates", "perfbench/Cargo.toml"):
        if not os.path.exists(os.path.join(root, needed)):
            print(f"perfbench: {needed} not found under {root}; "
                  "run from a full checkout of the repository", file=sys.stderr)
            return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(root, target)
        env["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "pdce"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 1
    # `--default-seed N` (recorded in BENCHMARK.json's command) applies
    # only when no `--seed` is given.
    args = sys.argv[1:]
    if "--default-seed" in args:
        k = args.index("--default-seed")
        default = args[k + 1:k + 2]
        del args[k:k + 2]
        if "--seed" not in args:
            args += ["--seed", *default]
    # One CPU for the benchmark and the server it starts: a request then
    # passes between the two processes by a local context switch instead
    # of waking an idle virtual CPU, whose latency follows the host's
    # load.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    bench = [
        os.path.join(target, "release", "perfbench"),
        *args,
        "--pdce-bin", os.path.join(target, "release", "pdce"),
        "--tmp-dir", os.path.join(root, ".bench_tmp"),
        "--out-dir", os.path.join(root, ".bench_out"),
    ]
    return subprocess.run(bench, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
