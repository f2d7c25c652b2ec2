"""The scripts run end to end and report failure through their exit codes."""

import dataclasses
import importlib.util
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
