#!/usr/bin/env python3
"""Runs one workload of the dbring benchmark and prints its result.

    python3 perfbench/run.py --workload ingest|serve_wide|tcp --seed N \
        --seconds S --trace 0|1

Run it from the repository root. It builds the benchmark package
(perfbench/Cargo.toml) and, for `tcp`, the `dbring-serve` binary, in release
mode into $CARGO_TARGET_DIR (default: .bench_build). With --trace 0 it runs the
gating binary, which prints the end-to-end metrics; with --trace 1 the traced
binary, which prints the per-layer metrics and writes its spans to
$CARGO_TARGET_DIR/perfbench-spans/. Before the harness's own lines it prints a
`host` line (cores, commit, date, rustc). The last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when the build succeeded and every check passed.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

WORKLOADS = ("ingest", "serve_wide", "tcp")
# The first run in a checkout builds; later runs only check that it is fresh.
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def output(args, **kwargs):
    try:
        return subprocess.run(args, capture_output=True, text=True, timeout=30,
                              **kwargs).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def host_facts():
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "nproc": cores,
        "commit": output(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "rustc": output(["rustc", "--version"]) or "unknown",
    }


def build(cargo_args, env):
    """Builds with cargo, its output on stderr; returns True on success."""
    command = ["cargo", "build", "--release", "--offline", "--quiet"] + cargo_args
    try:
        done = subprocess.run(command, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as error:
        log(f"cannot run cargo: {error}")
        return False
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    binary = "perfbench-trace" if args.trace else "perfbench"
    if not build(["--manifest-path", "perfbench/Cargo.toml", "--bin", binary], env):
        log("building the benchmark failed")
        return 1
    command = [
        os.path.join(target, "release", binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if args.workload == "tcp":
        if not build(["-p", "dbring-server", "--bin", "dbring-serve"], env):
            log("building dbring-serve failed")
            return 1
        command += ["--server", os.path.join(target, "release", "dbring-serve")]
    if args.trace:
        spans = os.path.join(target, "perfbench-spans", f"{args.workload}-seed{args.seed}.tsv")
        command += ["--spans", spans]

    facts = host_facts()
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{binary} did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or not lines:
        log(f"{binary} exited with {done.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(f"{binary} printed no result line")
        return 1
    print(json.dumps({"host": facts}))
    for line in lines:
        print(line)
    return 0 if done.returncode == 0 and result.get("correct") is True else 1


if __name__ == "__main__":
    sys.exit(main())
