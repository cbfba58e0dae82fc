#!/usr/bin/env python3
"""Run one benchmark workload and print its result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fig12-grid --seed 1 --seconds 20 \\
        --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it (``# details {...}``) records the environment, scale
factor, seeds, per-query medians and any failure reasons.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(HERE)
if ROOT_DIR not in sys.path:
    sys.path.insert(0, ROOT_DIR)

from perfbench import env  # noqa: E402

WORKLOADS = ("fig12-grid", "trip-lookups", "gps-ingest")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(cfg) -> dict:
    """Run one workload; returns the result object (and prints nothing)."""
    from perfbench import grid, ingest, lookups

    module = {"fig12-grid": grid, "trip-lookups": lookups,
              "gps-ingest": ingest}[cfg.workload]
    output = module.run(cfg)
    output.details.update({
        "workload": cfg.workload,
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "trace": cfg.trace,
        "environment": env.environment_record(),
    })
    return {
        "details": output.details,
        "result": {
            # A run in which no timed operation completed has no metrics
            # and showed nothing correct.
            "correct": output.tally.correct and bool(output.metrics),
            "attempted": output.tally.attempted,
            "failed": output.tally.failed,
            "metrics": output.metrics,
        },
    }


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    env.pin_environment([os.path.abspath(__file__), *argv])
    try:
        env.add_program_to_path()
    except env.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from perfbench.harness import RunConfig

    outdir = os.path.join(HERE, "out")
    workdir = os.path.join(outdir, f"work-{os.getpid()}")
    cfg = RunConfig(workload=args.workload, seed=args.seed,
                    seconds=args.seconds, trace=bool(args.trace),
                    workdir=workdir, outdir=outdir)
    os.makedirs(workdir, exist_ok=True)
    try:
        outcome = execute(cfg)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("# details " + json.dumps(outcome["details"], default=str))
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
