#!/usr/bin/env python3
"""Print one SHA-256 digest of the program's outputs per (workload, seed).

Usage: python scripts/output_digest.py [--seeds S [S ...]] [--against DIR]

The inputs are the benchmark's (``bench/corpus.py``); the seeds default
to 1, 2 and 3.  Each line reads ``WORKLOAD seed S SHA256``, and the
digest covers, item by item in corpus order:

- analyze: the ``analyze_map`` report of each map, or its error, and the
  minimal normal subgroups of its Mon with their generators;
- decompose: each verdict of the route the benchmark takes (the
  edge-transitive one for the constructions, the general one otherwise)
  with its reason, witness generators, factors and certificate, and the
  minimal normal subgroups of Mon;
- census: the files ``write_census`` writes for the default census
  (|Mon| <= 96, context bound 12, with analysis), which do not depend on
  the seed;
- constructions: the raw ``construct_from_group`` output, the tables in
  the construction's numbering (element * |S| + offset), the root and the
  admissibility report with its sets sorted, for every input of the
  construction pool (``bench/reference/constructions.json``) and of
  ``corpus.boundary_constructions``.  The corpora hold every map in its
  breadth-first labels, so this line alone sees the construction's own
  numbering; it does not depend on the seed either.

The program is imported from ``src/`` of this checkout, as the benchmark
imports it (``bench/workload.py``).  Two checkouts whose outputs are the
same print the same lines.  Nothing is written under ``bench/``: no byte
code is kept, and the census is written to a temporary directory.

``--against DIR`` compares with another checkout: it runs
``DIR/scripts/output_digest.py`` inside DIR with the same seeds, then
prints this checkout's lines, each followed by ``same`` or ``differs``.

Exit 0; 1 with ``--against`` when a line differs or the other run fails;
2 on bad arguments.
"""

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "bench")]

import corpus  # noqa: E402  (bench/corpus.py, found through sys.path)
from workload import load_program  # noqa: E402  (bench/workload.py)


def plain(m):
    return [list(g.images) for g in m.generators()], m.root


def minimal_normals(fm, m):
    """Mon's minimal normal subgroups as generator images, or the bound
    that stopped the search."""
    try:
        return [[list(g.images) for g in H.generators] for H in
                fm.package.minimal_normal_subgroups(m.monodromy_group())]
    except fm.package.BoundExceeded as exc:
        return f"BoundExceeded: {exc}"


def analyze_records(fm, seed):
    for item in corpus.analyze_corpus(fm, seed):
        m = corpus.program_map(fm, item)
        try:
            report = fm.cli.analyze_map(m).to_json_dict()
        except Exception as exc:  # the benchmark counts these as failed
            report = f"{type(exc).__name__}: {exc}"
        yield (item.name, report,
               minimal_normals(fm, corpus.program_map(fm, item)))


def decompose_records(fm, seed):
    for item in corpus.decompose_corpus(fm, seed):
        m = corpus.program_map(fm, item)
        decide = (fm.decomp.decomposability_edge_transitive
                  if item.family == "edge-transitive"
                  else fm.decomp.decomposability_general)
        v = decide(m)
        yield (item.name, v.decomposable, v.reason, v.witness_group,
               [[list(g.images) for g in H.generators]
                for H in v.witnesses or ()],
               [plain(f) for f in v.factors or ()],
               v.certificate and list(v.certificate),
               minimal_normals(fm, corpus.program_map(fm, item)))


def census_records(fm, seed):
    result = fm.cli.census_reflexible()
    with tempfile.TemporaryDirectory() as out:
        fm.cli.write_census(result, Path(out))
        for path in sorted(Path(out).iterdir()):
            yield path.name, path.read_text()


def construction_records(fm, seed):
    """Each construction the corpora make, recorded raw through a stand-in
    for ``construct_from_group``, on every tuple of the pool."""
    records = []

    def construct(type_label, lg):
        m, report = fm.construct_from_group(type_label, lg)
        records.append((type_label, list(lg.labels),
                        [list(g.images) for g in lg.generators], plain(m),
                        {name: sorted(value) if isinstance(value, frozenset)
                         else value for name, value in vars(report).items()}))
        return m, report

    recording = SimpleNamespace(**{**vars(fm),
                                   "construct_from_group": construct})
    corpus.stratum_constructions(recording,
                                 corpus.load_reference("constructions.json"),
                                 None, skip_reflexible=False)
    corpus.boundary_constructions(recording)
    return records


WORKLOADS = {"census": census_records, "analyze": analyze_records,
             "decompose": decompose_records,
             "constructions": construction_records}


def digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def other_digests(checkout: Path, seeds) -> dict[str, str]:
    """The digest of each (workload, seed) line that the script of another
    checkout prints, run inside it; none when that run fails."""
    done = subprocess.run(
        [sys.executable, "scripts/output_digest.py", "--seeds",
         *map(str, seeds)], cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"the run in {checkout} exited {done.returncode}",
              file=sys.stderr)
        return {}
    return dict(line.rsplit(" ", 1) for line in done.stdout.splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="One SHA-256 of the outputs per (workload, seed).")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--against", type=Path, metavar="DIR",
                        help="another checkout to compare the lines with")
    args = parser.parse_args(argv)
    other = None
    if args.against is not None:
        if not (args.against / "scripts" / "output_digest.py").is_file():
            parser.error(f"{args.against} has no scripts/output_digest.py")
        other = other_digests(args.against, args.seeds)
    fm = load_program()
    differs = False
    for seed in args.seeds:
        for name, records in WORKLOADS.items():
            key = f"{name} seed {seed}"
            line = f"{key} {digest(records(fm, seed))}"
            if other is not None:
                same = other.get(key) == line.rsplit(" ", 1)[1]
                differs |= not same
                line += " same" if same else " differs"
            print(line, flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
