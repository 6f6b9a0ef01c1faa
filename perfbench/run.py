#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload table1-cold --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a checkout (it builds nothing; the program is
imported from ``src/``).  ``--trace 0`` prints every end-to-end
metric (every workload reports all of them); ``--trace 1`` is a
separate traced run that prints every per-layer metric.  The last
line of standard output is the result: ``{"correct", "attempted",
"failed", "metrics"}``.  Per-input detail rows go to standard error.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from harness import metrics  # noqa: E402

#: set-ups per untraced run (this process plus fresh child processes);
#: ``setup_s`` is their median
SETUP_REPEATS = 5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="the run length the workloads are sized "
                             "for; every workload measures a fixed "
                             "input set so its counts repeat exactly")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="a seconds-long configuration for the "
                             "harness self-tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args, *extra: str) -> dict:
    """Run this script in a fresh process; its parsed result line."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)] + list(extra)
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, timeout=170,
                               check=True)
    return json.loads(completed.stdout.decode().strip().splitlines()[-1])


def make_workload(name: str, seed: int, smoke: bool, traced: bool):
    from harness.offline import WORKLOADS as OFFLINE
    if name in OFFLINE:
        return OFFLINE[name](seed, smoke, traced)
    from harness.service import ServiceOpen
    return ServiceOpen(seed, smoke, traced)


def main(argv=None) -> int:
    args = _parse(argv)
    # A process started in the background may inherit SIGINT ignored,
    # and would pass that on to the serve daemon, which then could not
    # be stopped cleanly; a handler (unlike "ignore") is reset on exec.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    # on SIGTERM, unwind so the daemon and run files are cleaned up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"error: no program sources under {ROOT}/src; run from the "
              "root of a si-mapper checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from harness.common import process_age
    from harness.stats import median

    workload = make_workload(args.workload, args.seed, args.smoke,
                             bool(args.trace))
    try:
        workload.setup()
        setup_s = process_age()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        outcome = workload.measure()
    finally:
        workload.close()
    if args.trace:
        untraced = _child(args, "--trace", "0")["metrics"]
        outcome.layer["trace.overhead_ratio"] = (
            outcome.metrics["wall_s"] / untraced["wall_s"]["value"])
        # tracing must not change what the program computes
        for name, entry in untraced.items():
            if entry["unit"] in ("count", "literals") and \
                    entry["value"] != outcome.metrics[name]:
                outcome.fail("trace", [f"traced {name} "
                                       f"{outcome.metrics[name]} != "
                                       f"untraced {entry['value']}"])
        outcome.metrics = metrics.complete(outcome.layer)
        names = list(metrics.PER_LAYER)
    else:
        setups = [setup_s] + [_child(args, "--setup-only")["setup_s"]
                              for _ in range(SETUP_REPEATS - 1)]
        outcome.put("setup_s", median(setups))
        names = list(metrics.END_TO_END)
    for line in outcome.detail:
        print(line, file=sys.stderr)
    for operation, why in sorted(outcome.failures.items()):
        print(f"FAILED {operation}: {why}", file=sys.stderr)
    print(json.dumps(outcome.result(names)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
