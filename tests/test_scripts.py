"""The scripts run end to end and report failure through their exit codes."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagmaps

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    src = str(Path(flagmaps.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name, args", [
    ("dm_decomposability.py", ["24"]),
    ("triality_tour.py", []),
    ("run_census.py", ["24", "6", "{out}"]),
])
def test_script_runs(tmp_path, name, args):
    done = run_script(name, *(a.format(out=tmp_path / "census") for a in args))
    assert done.returncode == 0, done.stderr
    assert done.stdout
    if name == "run_census.py":
        assert "outcome counts: overflow " in done.stdout


@pytest.mark.parametrize("name", ["dm_decomposability.py", "run_census.py"])
@pytest.mark.parametrize("args", [["--help"], ["x"]])
def test_script_bad_arguments(name, args):
    done = run_script(name, *args)
    assert done.returncode == 2
    assert done.stderr.startswith("usage:")


def load_dm_scan():
    spec = importlib.util.spec_from_file_location(
        "dm_decomposability", SCRIPTS / "dm_decomposability.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_dm_scan_mismatch_exit_code(monkeypatch, capsys):
    script = load_dm_scan()
    # a wrong criterion disagrees with the verdicts for every prime power
    monkeypatch.setattr(script, "is_prime_power", lambda k: False)
    monkeypatch.setattr(sys, "argv", ["dm_decomposability.py", "4"])
    assert script.main() == 1
    assert "MISMATCHES" in capsys.readouterr().out


def test_dm_scan_corrupt_certificate_exit_code(monkeypatch, capsys):
    # verdicts right, certificates reversed: the product's rooted
    # isomorphism onto the map disagrees with every certificate
    script = load_dm_scan()
    decide = script.decomposability_reflexible

    def corrupt(m):
        verdict = decide(m)
        if verdict.certificate is None:
            return verdict
        return dataclasses.replace(verdict,
                                   certificate=verdict.certificate[::-1])

    monkeypatch.setattr(script, "decomposability_reflexible", corrupt)
    monkeypatch.setattr(sys, "argv", ["dm_decomposability.py", "6"])
    assert script.main() == 1
    out = capsys.readouterr().out
    assert "certificate disagrees with the product" in out
    assert "MISMATCHES" in out


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", SCRIPTS / "bench_pairs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


# four pairs of canned ``bench/run.py`` result lines, parent and change
RUN_LINE = ('{{"correct": true, "attempted": 10, "failed": 0, "metrics": '
            '{{"throughput_ops_per_s": {{"value": {ops}, "unit": "1/s"}}, '
            '"latency_p90_ms": {{"value": {p90}, "unit": "ms"}}}}}}')
CANNED_RUNS = [
    (RUN_LINE.format(ops=old_ops, p90=old_p90),
     RUN_LINE.format(ops=new_ops, p90=new_p90))
    for old_ops, new_ops, old_p90, new_p90 in (
        (100, 104, 1.40, 1.20), (110, 100, 1.45, 1.22),
        (90, 95, 1.38, 1.25), (100, 99, 1.42, 1.21))]


def end_to_end(better, bound, name="latency_p90_ms"):
    return [{"name": name, "better": better, "bound": bound}]


def test_bench_pairs_summary():
    script = load_bench_pairs()
    parent = [json.loads(old) for old, _ in CANNED_RUNS]
    change = [json.loads(new) for _, new in CANNED_RUNS]
    lines = script.summarize(
        parent, change,
        end_to_end("higher", 0.25, "throughput_ops_per_s")
        + end_to_end("lower", 0.25))
    # throughput: medians 100 and 99.5, parent quartiles 97.5 and 102.5;
    # p90: medians 1.41 and 1.215, parent quartiles 1.395 and 1.4275,
    # printed to four digits
    assert lines == [
        "throughput_ops_per_s: parent 100 [97.5, 102.5] -> change 99.5 "
        "[98, 101]; better in 2/4 pairs; within the parent's IQR (5); "
        "gain rule not met; within the 25% bound",
        "latency_p90_ms: parent 1.41 [1.395, 1.427] -> change 1.215 "
        "[1.208, 1.228]; better in 4/4 pairs; better by more than the "
        "parent's IQR (0.0325); gain rule met; within the 25% bound"]
    # the reverse is 16% worse in the median: past a 10% bound only
    for bound, verdict in ((0.1, "worse than the 10% bound"),
                           (0.25, "within the 25% bound")):
        worse = script.summarize(change, parent, end_to_end("lower", bound))
        assert worse[0].endswith(
            "better in 0/4 pairs; worse by more than the parent's IQR "
            "(0.02); gain rule not met; " + verdict)


def test_bench_pairs_gain_rule_needs_nine_pairs_in_ten():
    # a median gap beyond the parent's IQR, but better in only 3 of 4
    # pairs; with the fourth pair better too the rule is met
    script = load_bench_pairs()
    parent = [json.loads(old) for old, _ in CANNED_RUNS]
    for last, verdict in ((1.50, "gain rule not met"), (1.30, "gain rule met")):
        change = [json.loads(RUN_LINE.format(ops=100, p90=p90))
                  for p90 in (1.20, 1.22, 1.25, last)]
        line, = script.summarize(parent, change, end_to_end("lower", 0.25))
        assert "better by more than the parent's IQR" in line
        assert f"; {verdict}; within the 25% bound" in line


@pytest.mark.parametrize("args", [
    [],
    ["{root}", "{root}", "--workload", "analyze", "--seed", "1"],
    ["{root}", "{root}", "--workload", "other", "--seed", "1", "--pairs", "1"],
    ["{root}", "{root}", "--workload", "analyze", "--seed", "1",
     "--pairs", "0"],
    ["{root}", "{missing}", "--workload", "analyze", "--seed", "1",
     "--pairs", "1"],
])
def test_bench_pairs_bad_arguments(tmp_path, args):
    root = SCRIPTS.parent
    done = run_script("bench_pairs.py", *(
        a.format(root=root, missing=tmp_path / "missing") for a in args))
    assert done.returncode == 2
    assert done.stderr.startswith("usage:")
    assert "pair 0" not in done.stdout


def test_output_digest_is_stable(tmp_path):
    # one line per workload, and the same digests from a second run: a
    # run against this checkout marks every line the same
    root = SCRIPTS.parent
    done = run_script("output_digest.py", "--seeds", "1", "--against", root)
    assert done.returncode == 0, done.stderr
    marked = [line.rsplit(" ", 1) for line in done.stdout.splitlines()]
    assert {mark for _, mark in marked} == {"same"}
    lines = [line for line, _ in marked]
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        "census seed 1", "analyze seed 1", "decompose seed 1",
        "constructions seed 1"]
    assert all(len(line.rsplit(" ", 1)[1]) == 64 for line in lines)
    # a checkout whose script prints one altered line differs there alone
    altered = lines[:2] + [lines[2][:-1] + "x"] + lines[3:]
    stub = tmp_path / "stub"
    (stub / "scripts").mkdir(parents=True)
    (stub / "scripts" / "output_digest.py").write_text(
        f"print({chr(10).join(altered)!r})\n")
    done = run_script("output_digest.py", "--seeds", "1", "--against", stub)
    assert done.returncode == 1, done.stderr
    assert done.stdout.splitlines() == [
        f"{line} {'differs' if i == 2 else 'same'}"
        for i, line in enumerate(lines)]
    # a checkout whose script fails differs everywhere
    (stub / "scripts" / "output_digest.py").write_text("raise SystemExit(3)\n")
    done = run_script("output_digest.py", "--seeds", "1", "--against", stub)
    assert done.returncode == 1
    assert done.stdout.splitlines() == [f"{line} differs" for line in lines]
    assert "exited 3" in done.stderr


@pytest.mark.parametrize("args", [["--seeds"], ["--seeds", "x"], ["1"],
                                  ["--other"], ["--against"],
                                  ["--against", "{missing}"]])
def test_output_digest_bad_arguments(tmp_path, args):
    done = run_script("output_digest.py", *(
        a.format(missing=tmp_path / "missing") for a in args))
    assert done.returncode == 2
    assert done.stderr.startswith("usage:")
    assert done.stdout == ""
