#!/usr/bin/env python3
"""End-to-end benchmark launcher.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke [--workload <name> ...]

The first form builds the harness (``perfbench/harness``, a cargo package
of its own that depends on the repository's crates by path) into
``$CARGO_TARGET_DIR`` (default ``.bench_build``), runs one workload and
relays its output; the last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``. A failed build or run
exits non-zero without printing a result.

``--smoke`` runs every workload (or the named ones) for about a second on
shrunken inputs, traced and untraced, and checks that each emits exactly
the metric names and units ``BENCHMARK.json`` declares and passes its
correctness gates; it then reruns each with an injected fault and checks
that the gates catch it.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "harness", "Cargo.toml")
WORKLOADS = ["derive", "serve_churn", "learn"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the harness; returns the binary path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    try:
        done = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    binary = os.path.join(target_dir(), "release", "perfbench-harness")
    return binary if os.path.isabs(binary) else os.path.join(ROOT, binary)


def git_rev():
    """The checked-out commit, read from .git without leaving the tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_harness(binary, args):
    """Runs the harness; returns (exit code, stdout lines, stderr)."""
    cmd = [binary] + args + ["--git-rev", git_rev(), "--out-dir", os.path.join("perfbench", "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 1, [], f"perfbench: run exceeded {RUN_TIMEOUT_S}s"
    return done.returncode, done.stdout.splitlines(), done.stderr


def result_of(lines):
    return json.loads(lines[-1]) if lines else None


def check_names(result, declared, label):
    """Problems with the result object's keys, metric names and units."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return problems
    emitted = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if emitted != want:
        missing = sorted(set(want) - set(emitted))
        extra = sorted(set(emitted) - set(want))
        units = sorted(n for n in want if n in emitted and emitted[n] != want[n])
        problems.append(f"{label}: missing {missing}, undeclared {extra}, wrong units {units}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{label}: {name} has no numeric value")
    return problems


def smoke(binary, workloads):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in workloads:
        for trace in ("0", "1"):
            base = ["--workload", w, "--seed", "7", "--seconds", "1", "--trace", trace, "--smoke"]
            label = f"{w} trace={trace}"
            code, lines, err = run_harness(binary, base)
            result = result_of(lines) if code == 0 else None
            if result is None:
                problems.append(f"{label}: exit {code}: {err.strip()[-400:]}")
                continue
            declared = spec["per_layer"] if trace == "1" else spec["end_to_end"]
            problems += check_names(result, declared, label)
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: gates failed on clean run: {err.strip()[-400:]}")
            code, lines, err = run_harness(binary, base + ["--inject-fault"])
            faulty = result_of(lines) if code == 0 else None
            if faulty is None or faulty["correct"] or faulty["failed"] < 1:
                problems.append(f"{label}: injected fault not caught ({faulty})")
            print(f"smoke {label}: {'ok' if not problems else 'see problems'}", file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    opts = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    if opts.smoke:
        return smoke(binary, opts.workload or WORKLOADS)
    if not opts.workload or len(opts.workload) != 1:
        parser.error("name exactly one --workload")
    args = [
        "--workload", opts.workload[0],
        "--seed", str(opts.seed),
        "--seconds", str(opts.seconds),
        "--trace", opts.trace,
    ]
    code, lines, err = run_harness(binary, args)
    sys.stderr.write(err)
    if code != 0 or not lines:
        print(f"perfbench: harness exited with {code}", file=sys.stderr)
        return code or 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
