#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs of runs.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W --seed S
                                     --pairs N

Each pair runs ``bench/run.py --workload W --seed S --seconds 36
--trace 0`` once in each checkout, one after the other; the parent runs
first in pairs 0, 2, 4, ... and second in the others, so a slow spell of
the machine does not fall on one side only.  Each run's end-to-end
metrics are read from the last line of its output.  Per metric, with the
direction and bound from the parent's ``BENCHMARK.json``, the summary
gives each side's median and quartiles (``statistics.quantiles``,
inclusive), the pairs in which the change is better, whether the gap
between the medians exceeds the parent's interquartile range, and two
verdicts: whether the change meets the gain rule (better in at least 9
of 10 pairs, with a median gap beyond the parent's interquartile range),
and whether its median is worse than the parent's by more than the
metric's bound, a fraction of the parent's median.  Exit 0 when every
run finished and read ``correct: true``, 1 otherwise, 2 on bad arguments.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SECONDS = 36
WORKLOADS = ("census", "analyze", "decompose")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced benchmark run in a checkout: its result object, or
    an object with ``correct`` false and the error when it failed."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "error": done.stderr.strip()[-300:],
                "metrics": {}}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent_runs: list[dict], change_runs: list[dict],
              metrics: list[dict]) -> list[str]:
    """One line per metric of ``metrics`` (``BENCHMARK.json``'s
    ``end_to_end`` entries: name, better "higher" or "lower", and bound)
    over the paired runs' metrics, each ``{"value": v, "unit": u}`` as
    ``bench/run.py`` prints it."""
    lines = []
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        old = [run["metrics"][name]["value"] for run in parent_runs]
        new = [run["metrics"][name]["value"] for run in change_runs]
        sign = 1 if metric["better"] == "higher" else -1
        won = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        o1, o2, o3 = quartiles(old)
        n1, n2, n3 = quartiles(new)
        gain = sign * (n2 - o2)
        if abs(gain) <= o3 - o1:
            verdict = "within the parent's IQR"
        else:
            verdict = ("better" if gain > 0 else "worse") + \
                " by more than the parent's IQR"
        meets = 10 * won >= 9 * len(old) and gain > o3 - o1
        beyond = -gain > bound * abs(o2)
        lines.append(
            f"{name}: parent {o2:.4g} [{o1:.4g}, {o3:.4g}] -> change "
            f"{n2:.4g} [{n1:.4g}, {n3:.4g}]; better in {won}/{len(old)} "
            f"pairs; {verdict} ({o3 - o1:.4g}); gain rule "
            f"{'met' if meets else 'not met'}; "
            f"{'worse than' if beyond else 'within'} the {bound:.0%} bound")
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="Alternating benchmark pairs of two checkouts.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    for checkout in (args.parent, args.change):
        if not (checkout / "bench" / "run.py").is_file():
            parser.error(f"no bench/run.py under {checkout}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in sides:
            checkout = args.parent if side == "parent" else args.change
            result = run_once(checkout, args.workload, args.seed)
            runs[side].append(result)
            print(f"pair {i} {side}: " + json.dumps(result), flush=True)
    failed = [r for side in runs.values() for r in side
              if not r.get("correct") or r.get("failed")]
    if failed:
        print(f"{len(failed)} runs failed or read correct: false")
        return 1
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, "
          f"median [quartiles]:")
    for line in summarize(runs["parent"], runs["change"],
                          spec["end_to_end"]):
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
