"""One run of one workload, in its own single-threaded process.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
                              [--setup-only]

The process imports ``flagmaps`` from ``src/`` of the checkout, builds its
inputs from the seed, and prints ``READY`` when the first timed operation
is about to start (``run.py`` times set-up from process start to that
line).  It then runs as many whole rounds of the workload as fit in
``--seconds`` at the workload's nominal round length, checks every output,
and prints one JSON line of results.  Every operation is timed by
``speed.Meter``, in seconds scaled to a fixed machine speed.

With ``--trace 1`` it runs the same number of traced rounds, each after an
untraced one, with the program's functions wrapped (``tracer.py``) only
for the traced rounds.  It reports per-layer figures per traced round, and
the tracing overhead as the share by which the traced rounds are slower
than the untraced ones, by the same median-of-rounds measure.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import corpus
from checks import (canonical_form, check_analysis, check_census,
                    check_verdict)
from speed import Meter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS_DIR = BENCH_DIR / "results"
MODULES = ("perm", "fpres", "mapcore", "quotient", "product", "decomp",
           "degen", "ettype", "cli")

CENSUS_MAX_ORDER = 96
CENSUS_CONTEXT_BOUND = 12


class MissingProgram(Exception):
    """The checkout holds no program to run."""


def load_program():
    """Import ``flagmaps`` and the test oracles from this checkout only."""
    package_init = ROOT / "src" / "flagmaps" / "__init__.py"
    if not package_init.is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        raise MissingProgram(f"no src/flagmaps or tests/oracles.py under {ROOT}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    package = importlib.import_module("flagmaps")
    if Path(package.__file__).resolve() != package_init.resolve():
        raise MissingProgram(f"flagmaps imported from {package.__file__}")
    modules = {name: importlib.import_module(f"flagmaps.{name}")
               for name in MODULES}
    oracles = importlib.import_module("tests.oracles")
    return SimpleNamespace(
        package=package, modules=modules, oracles=oracles,
        cli=modules["cli"], decomp=modules["decomp"],
        Perm=package.Perm, RootedMap=package.RootedMap,
        LabeledGenerators=package.LabeledGenerators,
        construct_from_group=package.construct_from_group,
        TYPE_GENERATORS=modules["ettype"].TYPE_GENERATORS,
        partial_order=package.partial_order,
        todd_coxeter=package.todd_coxeter,
        vector_presentation=modules["degen"].vector_presentation,
        regular_map_from_group=package.regular_map_from_group,
        build_degenerate=package.build_degenerate,
        build_slightly_degenerate=package.build_slightly_degenerate,
        census_reflexible=modules["cli"].census_reflexible,
    )


def plain(m):
    return tuple(g.images for g in m.generators()), m.root


# --- workloads ---------------------------------------------------------------
#
# Each workload has ``setup(fm, seed)``, returning its state;
# ``inputs(fm, state)``, building the objects one round hands the program;
# and ``run_round(fm, state, inputs, meter, tracer)``, returning
# (attempted, failed, outcomes, latencies): one outcome per checked unit,
# with a failed operation's outcome being its exception, and the scaled
# latency of each operation that did not fail.
# ``check(fm, state, rounds)`` returns problem strings.

class Census:
    round_s = 25

    @staticmethod
    def setup(fm, seed):
        bound = CENSUS_CONTEXT_BOUND
        # candidate vectors: 12 choices of (e1..e4), then e5..e7 up to bound
        return SimpleNamespace(candidates=12 * bound ** 3)

    @staticmethod
    def inputs(fm, state):
        return None

    @staticmethod
    def run_round(fm, state, inputs, meter, tracer):
        def census(out):
            result = fm.cli.census_reflexible(CENSUS_MAX_ORDER,
                                              CENSUS_CONTEXT_BOUND)
            fm.cli.write_census(result, out)
            return result

        RESULTS_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RESULTS_DIR) as out:
            result, latency = meter.measure(census, Path(out))
            written = {p.name: p.read_text() for p in Path(out).iterdir()}
        entries = [(e.vector, e.group_order, plain(e.map)[0])
                   for e in result.entries]
        return state.candidates, 0, [(entries, written)], [latency]

    @staticmethod
    def check(fm, state, rounds):
        entries, written = rounds[0][0]
        problems = check_census(entries, corpus.load_reference("census.json"),
                                corpus.geometric_maps(), CENSUS_MAX_ORDER)
        summary = json.loads(written.get("census.json", "[]"))
        if len(summary) != len(entries):
            problems.append("census.json lists a different number of maps")
        for record, (_, _, gens) in zip(summary, entries):
            lines = dict(line.split(" ", 1) for line in
                         written.get(record["file"], "").splitlines() if line)
            if not {"T", "L", "R", "root"} <= set(lines):
                problems.append(f"{record['file']} is missing or incomplete")
                continue
            saved = tuple(tuple(map(int, lines[k].split())) for k in "TLR")
            if canonical_form(saved, int(lines["root"])) != canonical_form(gens, 0):
                problems.append(f"{record['file']} does not hold its entry")
        problems += [f"round {i}: output differs from round 0"
                     for i, r in enumerate(rounds) if r[0][0] != entries]
        return problems


class Analyze:
    round_s = 9

    @staticmethod
    def setup(fm, seed):
        return SimpleNamespace(items=corpus.analyze_corpus(fm, seed))

    @staticmethod
    def inputs(fm, state):
        return [corpus.program_map(fm, item) for item in state.items]

    @staticmethod
    def run_round(fm, state, inputs, meter, tracer):
        analyze_map = fm.cli.analyze_map
        outcomes, latencies = [], []
        failed = 0
        for i, m in enumerate(inputs):
            if tracer:
                tracer.op = i
            try:
                report, latency = meter.measure(analyze_map, m)
            except Exception as exc:  # counted as a failed operation
                failed += 1
                outcomes.append(exc)
                continue
            latencies.append(latency)
            outcomes.append(report)
        outcomes = [f"{type(o).__name__}: {o}" if isinstance(o, Exception)
                    else o.to_json_dict() for o in outcomes]
        return len(state.items), failed, outcomes, latencies

    @staticmethod
    def check(fm, state, rounds):
        first = rounds[0]
        problems = []
        for item, outcome in zip(state.items, first):
            if isinstance(outcome, str):
                if not item.name.startswith("boundary-"):
                    problems.append(f"{item.name}: failed with {outcome}")
                continue
            problems += check_analysis(item, corpus.program_map(fm, item),
                                       outcome, fm.oracles, fm.partial_order)
        problems += [f"round {i}: output differs from round 0"
                     for i, r in enumerate(rounds) if r != first]
        return problems


class Decompose:
    round_s = 7

    @staticmethod
    def setup(fm, seed):
        return SimpleNamespace(items=corpus.decompose_corpus(fm, seed))

    inputs = staticmethod(Analyze.inputs)

    @staticmethod
    def run_round(fm, state, inputs, meter, tracer):
        general = fm.decomp.decomposability_general
        edge_transitive = fm.decomp.decomposability_edge_transitive
        verdicts, latencies = [], []
        for i, (item, m) in enumerate(zip(state.items, inputs)):
            if tracer:
                tracer.op = i
            decide = (edge_transitive if item.family == "edge-transitive"
                      else general)
            verdict, latency = meter.measure(decide, m)
            latencies.append(latency)
            verdicts.append(verdict)
        outcomes = [(v.decomposable,
                     tuple(plain(f) for f in v.factors) if v.factors else None,
                     v.certificate) for v in verdicts]
        return len(state.items), 0, outcomes, latencies

    @staticmethod
    def check(fm, state, rounds):
        first = rounds[0]
        problems = []
        for item, outcome in zip(state.items, first):
            problems += check_verdict(item, outcome, fm.oracles)
        problems += [f"round {i}: output differs from round 0"
                     for i, r in enumerate(rounds) if r != first]
        return problems


WORKLOADS = {"census": Census, "analyze": Analyze, "decompose": Decompose}


# --- per-layer figures from the traced run -----------------------------------

# metric -> (figure, span name); "calls" counts spans, "self" sums self time.
SPAN_METRICS = {
    "fpres.todd_coxeter_calls": ("calls", "fpres.todd_coxeter"),
    "fpres.todd_coxeter_s": ("self", "fpres.todd_coxeter"),
    "fpres.word_order_calls": ("calls", "fpres.word_order"),
    "fpres.word_order_s": ("self", "fpres.word_order"),
    "perm.congruence_calls": ("calls", "perm.congruent_labeled_groups"),
    "perm.congruence_s": ("self", "perm.congruent_labeled_groups"),
    "perm.chain_builds": ("calls", "perm.StabilizerChain.__init__"),
    "perm.chain_s": ("self", "perm.StabilizerChain.__init__"),
    "perm.elements_calls": ("calls", "perm.PermGroup.elements"),
    "perm.elements_s": ("self", "perm.PermGroup.elements"),
    "perm.normal_closure_calls": ("calls", "perm.normal_closure"),
    "perm.normal_closure_s": ("self", "perm.normal_closure"),
    "perm.conjugacy_classes_s": ("self", "perm.conjugacy_classes"),
    "perm.minimal_normal_s": ("self", "perm.minimal_normal_subgroups"),
    "mapcore.monodromy_group_calls": ("calls", "mapcore.RootedMap.monodromy_group"),
    "mapcore.automorphism_group_calls": ("calls", "mapcore.automorphism_group"),
    "mapcore.automorphism_group_s": ("self", "mapcore.automorphism_group"),
    "mapcore.automorphism_to_calls": ("calls", "mapcore.automorphism_to"),
    "mapcore.isomorphism_calls": ("calls", "mapcore.isomorphism"),
    "mapcore.isomorphism_s": ("self", "mapcore.isomorphism"),
    "mapcore.genus_symbol_s": ("self", "mapcore.genus_symbol"),
    "mapcore.cells_and_surface_s": ("self", "mapcore.cells_and_surface"),
    "mapcore.save_map_s": ("self", "mapcore.save_map"),
    "mapcore.canonicalize_s": ("self", "mapcore.canonicalize"),
    "degen.context_vector_calls": ("calls", "degen.context_vector"),
    "degen.context_vector_s": ("self", "degen.context_vector"),
    "ettype.classify_type_calls": ("calls", "ettype.classify_type"),
    "ettype.classify_type_s": ("self", "ettype.classify_type"),
    "ettype.is_edge_transitive_s": ("self", "ettype.is_edge_transitive"),
    "ettype.map_symbol_s": ("self", "ettype.map_symbol"),
    "decomp.general_s": ("self", "decomp.decomposability_general"),
    "decomp.edge_transitive_s": ("self", "decomp.decomposability_edge_transitive"),
    "quotient.monodromy_quotient_calls": ("calls", "quotient.monodromy_quotient"),
    "quotient.monodromy_quotient_s": ("self", "quotient.monodromy_quotient"),
    "product.parallel_product_calls": ("calls", "product.parallel_product"),
    "product.parallel_product_s": ("self", "product.parallel_product"),
    "cli.census_s": ("self", "cli.census_reflexible"),
    "cli.write_census_s": ("self", "cli.write_census"),
    "cli.analyze_map_s": ("self", "cli.analyze_map"),
}


def layer_metrics(tracer, rounds, maps_per_round, census_entries, overhead):
    totals = tracer.totals()
    values = {}
    for metric, (figure, span) in SPAN_METRICS.items():
        calls, self_s = totals.get(span, (0, 0.0))
        values[metric] = (calls if figure == "calls" else self_s) / rounds
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            s for name, (_, s) in totals.items()
            if name.startswith(module + ".")) / rounds
    counters = tracer.counters
    values["fpres.overflows"] = tracer.errors.get(
        ("fpres.todd_coxeter", "EnumerationOverflow"), 0) / rounds
    values["perm.elements_enumerated"] = counters.get("elements_enumerated", 0) / rounds
    values["product.flags_built"] = counters.get("flags_built", 0) / rounds
    values["decomp.unknown_verdicts"] = counters.get("unknown_verdicts", 0) / rounds
    values["perm.congruence_calls_per_entry"] = (
        values["perm.congruence_calls"] / census_entries if census_entries else 0)
    for metric in ("mapcore.automorphism_group_calls", "degen.context_vector_calls"):
        values[metric + "_per_map"] = values[metric] / maps_per_round
    values["trace.spans"] = tracer.span_count() / rounds
    values["trace.overhead_share"] = overhead
    return values


# --- the run -----------------------------------------------------------------

def operation_latencies(results):
    """Every round repeats the same operations, so each operation has one
    scaled latency per round; returns each operation's median, sorted."""
    return sorted(statistics.median(lats)
                  for lats in zip(*(r[3] for r in results)))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # The guest scheduler moves a busy process between CPUs, and on the
    # two-vCPU machine this was tuned on one vCPU ran 10% slower than the
    # other; staying on one CPU keeps that switch out of the figures.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]

    try:
        fm = load_program()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    state = workload.setup(fm, args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    # A run makes as many whole rounds as fit in --seconds at the round's
    # nominal length.  The count does not depend on how fast this machine
    # is at the moment, so every run takes its median-of-rounds figures
    # over the same number of samples.
    rounds = max(1, int(args.seconds // workload.round_s))
    meter = Meter()
    tracer = None
    if args.trace:
        import tracer as tracing  # only traced runs pay for it
        tracer = tracing.Tracer()
        wrapping = tracing.Wrapping(tracer, fm.package, list(fm.modules.values()))
        results, untraced = [], []
        for _ in range(rounds):  # alternate, so drift hits both alike
            untraced.append(workload.run_round(
                fm, state, workload.inputs(fm, state), meter, None))
            inputs = workload.inputs(fm, state)
            wrapping.attach()
            try:
                results.append(workload.run_round(fm, state, inputs, meter,
                                                  tracer))
            finally:
                wrapping.detach()
        overhead = (sum(operation_latencies(results))
                    / sum(operation_latencies(untraced)) - 1)
    else:
        results = [workload.run_round(fm, state, workload.inputs(fm, state),
                                      meter, None) for _ in range(rounds)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = sum(r[0] for r in results)
    failed = sum(r[1] for r in results)
    problems = workload.check(fm, state, [r[2] for r in results])
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)

    out = {"correct": not problems, "attempted": attempted, "failed": failed}
    if tracer:
        census_entries = (len(results[0][2][0][0])
                          if args.workload == "census" else 0)
        maps = census_entries or len(state.items)
        out["layers"] = layer_metrics(tracer, len(results), maps,
                                      census_entries, overhead)
        RESULTS_DIR.mkdir(exist_ok=True)
        spans = RESULTS_DIR / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
        tracer.dump(spans)
        print(f"spans written to {spans}", file=sys.stderr)
    else:
        latencies = operation_latencies(results)
        p90 = (statistics.quantiles(latencies, n=10)[-1]
               if len(latencies) >= 2 else latencies[0])
        out["end_to_end"] = {
            "throughput_ops_per_s": (attempted - failed) / len(results)
                                    / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_p90_ms": p90 * 1000,
            "peak_rss_mb": peak_rss_mb,
        }
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
