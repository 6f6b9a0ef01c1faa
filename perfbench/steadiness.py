#!/usr/bin/env python3
"""Measure the benchmark's own run-to-run spread.

    python3 perfbench/steadiness.py --seeds 1-10 --out spread.json

Runs every workload once per seed, interleaved (seed 1 on each
workload, then seed 2, ...), and reports per end-to-end metric the
median, the quartiles and the spread: the interquartile range as a
share of the median, as ``statistics.quantiles(values, n=4)`` gives
the quartiles.  Also checks that every count metric read the same on
every run, and prints each spread against its bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness.metrics import WORKLOADS  # noqa: E402
from harness.stats import summarize  # noqa: E402


def _seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if len(_seeds(args.seeds)) < 2:
        parser.error("quartiles need at least two seeds")
    runs = {workload: [] for workload in args.workloads}
    units = {}
    for seed in _seeds(args.seeds):
        for workload in args.workloads:
            started = time.monotonic()
            completed = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", "0"],
                cwd=ROOT, capture_output=True, timeout=180, check=True)
            result = json.loads(completed.stdout.decode().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect")
            values = {name: entry["value"]
                      for name, entry in result["metrics"].items()}
            units.update({name: entry["unit"]
                          for name, entry in result["metrics"].items()})
            values["elapsed_s"] = time.monotonic() - started
            runs[workload].append(values)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={value:.4g}" for name, value in values.items()),
                flush=True)
    report = {}
    for workload, values in runs.items():
        summary = summarize(values)
        report[workload] = {
            "runs": len(values),
            "metrics": {name: dict(zip(("median", "q1", "q3", "spread"),
                                       entry))
                        for name, entry in summary.items()},
            "values": values,
            "counts_repeat": all(
                len({run[name] for run in values}) == 1
                for name in summary if units.get(name) in ("count",
                                                           "literals")),
        }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") \
            as handle:
        bounds = {metric["name"]: metric["bound"]
                  for metric in json.load(handle)["end_to_end"]}
    for workload, entry in report.items():
        print(f"{workload}: counts repeat exactly: "
              f"{entry['counts_repeat']}")
        for name, stats in entry["metrics"].items():
            against = ""
            if name in bounds:
                against = (f"  bound {bounds[name]:g}, spread/bound "
                           f"{stats['spread'] / bounds[name]:.2f}")
            print(f"{workload:>13} {name:>16}: median {stats['median']:.5g}"
                  f"  spread {stats['spread']:.2%}{against}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
