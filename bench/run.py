"""Benchmark entry point.

    python3 bench/run.py --workload census|analyze|decompose --seed N
                         --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts the workload in its own
single-threaded child process (``workload.py``).  Untraced runs first
start ``SETUP_SAMPLES`` children that exit right after set-up, and report
the median of their set-up times: each from the moment the child is
started to the moment it reports that its first timed operation is about
to begin, scaled to the nominal machine speed (``speed.py``) by
``SETUP_PROBES`` probes made right before the child starts and as many
right after it exits.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
same object is written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from speed import probe, scaled

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 7
SETUP_PROBES = 5
RUN_TIMEOUT_S = 170


class RunFailed(Exception):
    pass


def run_child(args, setup_only, deadline):
    """Start one workload process, killed at ``deadline``; returns (set-up
    seconds, result dict)."""
    command = [sys.executable, str(BENCH_DIR / "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        command.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        rest = proc.stdout.read().splitlines()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise RunFailed(f"workload process exited with code {code}")
    return setup_s, (None if setup_only else json.loads(rest[-1]))


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=("census", "analyze", "decompose"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "flagmaps" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # The children pin themselves to this CPU; the probes run on it too.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = perf_counter() + RUN_TIMEOUT_S
    try:
        samples = []
        for _ in range(0 if args.trace else SETUP_SAMPLES):
            probes = [probe() for _ in range(SETUP_PROBES)]
            seconds = run_child(args, True, deadline)[0]
            probes += [probe() for _ in range(SETUP_PROBES)]
            samples.append(scaled(seconds, probes))
        result = run_child(args, False, deadline)[1]
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = result["layers"]
    else:
        values = dict(result["end_to_end"], setup_s=statistics.median(samples))
    units = declared_metrics(args.trace)
    if set(values) != set(units):
        print(f"error: metrics {sorted(set(values) ^ set(units))} do not "
              "match BENCHMARK.json", file=sys.stderr)
        return 1
    out = {"correct": result["correct"], "attempted": result["attempted"],
           "failed": result["failed"],
           "metrics": {name: {"value": values[name], "unit": unit}
                       for name, unit in units.items()}}
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
