#!/usr/bin/env python3
"""Same-code spread: run one workload several times and report, per
end-to-end metric, the median, the quartiles and the spread against the
metric's bound in BENCHMARK.json.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload fig12-grid --runs 10 \\
        --seconds 20 [--sets 2]

Runs execute one after another, each a fresh ``perfbench/run.py``
process with its own seed (1, 2, ..., ``runs``).  The
spread is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``; a metric is steady when its spread
is below a third of its bound, and within bound while it does not
exceed it.  With ``--sets 2`` the same seeds run
twice and the command also reports how far the second set's median moved
from the first, in the direction the metric counts as worse.  Every run
must report the same share of failed operations.  The summary is written
to ``perfbench/out/spread-<workload>.json``; the exit code is 1 when a
check does not hold.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_once(workload: str, seed: int, seconds: float) -> dict:
    """One benchmark process; returns its result line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else float("inf"),
            "values": values}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    bench = load_bench()
    seconds = args.seconds or bench["run_seconds"]
    specs = bench["end_to_end"]
    ok = True
    sets = []
    for index in range(args.sets):
        results = []
        for k in range(args.runs):
            seed = k + 1
            result = run_once(args.workload, seed, seconds)
            share = result["failed"] / result["attempted"]
            print(f"set {index + 1} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}"
                  f" ({share:.6f})", flush=True)
            if not result["metrics"]:
                print("no timed operation completed; nothing to compare")
                return 1
            results.append(result)
        summary = {"failed_shares": sorted({
            r["failed"] / r["attempted"] for r in results})}
        for spec in specs:
            values = [r["metrics"][spec["name"]]["value"] for r in results]
            summary[spec["name"]] = summarize(values)
        sets.append(summary)
        if len(summary["failed_shares"]) != 1 or not all(
                r["correct"] for r in results):
            ok = False
    for index, summary in enumerate(sets):
        print(f"\nset {index + 1}: {args.workload}, {args.runs} runs of "
              f"{seconds} s, failed shares {summary['failed_shares']}")
        print(f"  {'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>8}  verdict")
        for spec in specs:
            entry = summary[spec["name"]]
            bound = spec["bound"]
            if entry["spread"] < bound / 3:
                verdict = "steady"
            elif entry["spread"] <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                ok = False
            print(f"  {spec['name']:<24}{entry['median']:>14.6g}"
                  f"{entry['q1']:>14.6g}{entry['q3']:>14.6g}"
                  f"{entry['spread']:>9.3f}{bound:8.2f}  {verdict}")
    if len(sets) > 1:
        print("\nsecond median against the first (positive = worse):")
        for spec in specs:
            moved = worse_by(sets[0][spec["name"]]["median"],
                             sets[-1][spec["name"]]["median"],
                             spec["better"])
            verdict = "ok" if moved <= spec["bound"] else "MOVED"
            ok = ok and moved <= spec["bound"]
            print(f"  {spec['name']:<24}{moved:>+9.3f} (bound "
                  f"{spec['bound']:.2f}) {verdict}")
        if sets[0]["failed_shares"] != sets[-1]["failed_shares"]:
            ok = False
            print("  failed shares differ between the sets")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spread-{args.workload}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seconds": seconds,
                   "runs": args.runs, "sets": sets}, handle, indent=2)
    print(f"\nsummary written to {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
