#!/usr/bin/env python3
"""Builds and runs the PBiTree end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of the repository. The script builds the `perfbench`
package (release profile, into `$CARGO_TARGET_DIR`, default
`.bench_build`), runs one workload in one process and relays its output;
the last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`.

Besides the checks the binary makes itself, the script keeps the exact
counters (page, frame, pair and simulated-I/O counts) of every run under
the build directory, keyed by workload, seed, trace flag and a hash of
the binary, and fails the run when the same binary and seed ever produce
different ones.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("serve_query", "serve_batch", "join_cold", "update_mix")
# The slowest workload needs about 30 s beyond its measured seconds.
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def build(bench_dir, target):
    if not (bench_dir.parent / "crates").is_dir():
        fail("the engine's sources (crates/) are not here; run from the repository root")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(bench_dir / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # Cargo's own output goes to stderr so stdout ends with the result.
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")
    binary = target / "release" / "pbitree-perfbench"
    if not binary.is_file():
        fail(f"no benchmark binary at {binary}")
    return binary


def check_exact(target, binary, args, exact):
    """Compares this run's exact counters with the first run of the same
    binary, workload, seed and trace flag; returns a mismatch or None."""
    if not exact:
        return None
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    record = target / "perfbench-exact" / f"{args.workload}-s{args.seed}-t{args.trace}-{digest}.json"
    if record.is_file():
        before = json.loads(record.read_text())
        diff = sorted(k for k in before.keys() | exact.keys() if before.get(k) != exact.get(k))
        if diff:
            shown = ", ".join(f"{k}: {before.get(k)} -> {exact.get(k)}" for k in diff[:8])
            return f"exact counters differ from an earlier run of this seed: {shown}"
        return None
    record.parent.mkdir(parents=True, exist_ok=True)
    tmp = record.with_suffix(".tmp")
    tmp.write_text(json.dumps(exact, sort_keys=True))
    tmp.replace(record)
    return None


def main():
    args = parse_args()
    bench_dir = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    binary = build(bench_dir, target)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark ran longer than {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if not lines:
        fail(f"the benchmark printed nothing (exit code {proc.returncode})")
    exact = {}
    for line in lines[:-1]:
        if line.startswith("exact "):
            exact = json.loads(line[len("exact "):])
        else:
            print(line)
    result = json.loads(lines[-1])
    mismatch = check_exact(target, binary, args, exact)
    if mismatch:
        print(f"check failed: {mismatch}", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(proc.returncode or 1)


if __name__ == "__main__":
    main()
