#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

Run from the repository root:

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--same-seed]
                                [--workload <name> ...] [--order-seed 0]
                                [--trace] [--out perfbench/spread.json]

Runs ``perfbench/run.py`` ``--runs`` times on each workload, with the
run length ``BENCHMARK.json`` sets: once per seed from ``--first-seed``
on, or ``--runs`` times on ``--first-seed`` alone with ``--same-seed``.
The runs of all workloads are interleaved in a shuffled order
(``--order-seed``), so a slow stretch of the host is spread over
workloads and seeds instead of landing on the last seeds of one
workload; each value is recorded with its place in that order.

For every metric the report gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median. A spread at or
above a third of the metric's bound in ``BENCHMARK.json`` is flagged and
makes the exit code 1. With ``--trace`` the per-layer metrics of traced
runs are summarized instead, unflagged. The report, with the host's core
count and the git revision, is written to ``--out`` when given.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import WORKLOADS, git_rev  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--order-seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = str(spec["run_seconds"])
    workloads = opts.workload or [w["name"] for w in spec["workloads"]]
    seeds = [opts.first_seed + (0 if opts.same_seed else i) for i in range(opts.runs)]
    plan = [(w, s) for w in workloads for s in seeds]
    random.Random(opts.order_seed).shuffle(plan)

    values = {w: {} for w in workloads}
    runs = {w: [] for w in workloads}
    for place, (w, seed) in enumerate(plan):
        cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed),
               "--seconds", seconds, "--trace", "1" if opts.trace else "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"{w} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"{w} seed {seed}: incorrect: {result}", file=sys.stderr)
            return 1
        runs[w].append({"place": place, "seed": seed})
        for name, m in result["metrics"].items():
            values[w].setdefault(name, []).append(m["value"])
        print(f"[{place + 1}/{len(plan)}] {w} seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items() if m["value"]),
            file=sys.stderr)

    report = {
        "host_cores": os.cpu_count(),
        "git_rev": git_rev(),
        "runs": opts.runs,
        "same_seed": opts.same_seed,
        "order_seed": opts.order_seed,
        "seconds": spec["run_seconds"],
        "trace": opts.trace,
        "workloads": {},
    }
    flagged = []
    for w in workloads:
        rows = {}
        for name, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            bound = bounds.get(name)
            if not opts.trace and bound and spread >= bound / 3:
                flagged.append(f"{w} {name}: spread {spread:.4f} >= bound/3 {bound / 3:.4f}")
            print(f"{w:12s} {name:32s} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:.4f}")
        report["workloads"][w] = {"runs": runs[w], "metrics": rows}
    if opts.out:
        with open(os.path.join(ROOT, opts.out), "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    for line in flagged:
        print(f"FLAG {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
