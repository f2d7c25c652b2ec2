"""Every name a module of the package imports is used in that module, and
each module imports only the modules below it in the package's layers."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagmaps

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "flagmaps"


def imported_names(tree):
    """The names that the module's imports bind, but for ``__future__``
    features."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
    ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    # __init__.py imports to re-export, so it is left out
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


# The package's modules, lowest first: the kernel perm imports nothing from
# the package, and cli everything it needs.
LAYERS = ["perm", "fpres", "mapcore", "quotient", "product", "degen",
          "ettype", "decomp", "cli"]


def package_imports(tree):
    """The package modules that a module imports, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                top, _, module = module.partition(".")
                if top != "flagmaps":
                    continue
            if module:
                yield module.partition(".")[0]
            else:  # from . import a, b
                yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                top, _, rest = alias.name.partition(".")
                if top == "flagmaps":
                    yield rest.partition(".")[0] or top


def test_layers_name_every_module():
    assert sorted(LAYERS) == sorted(
        p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("module", LAYERS)
def test_each_module_imports_only_lower_layers(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    below = set(LAYERS[:LAYERS.index(module)])
    assert sorted(set(package_imports(tree)) - below) == []


def run_python(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_running_the_cli_module_warns_nothing():
    # the package does not import cli, so runpy finds it not yet imported
    result = run_python("-m", "flagmaps.cli", "--help")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("usage:")


def test_the_cli_names_are_read_from_cli_on_first_use():
    result = run_python("-c", "import sys, flagmaps; "
                        "print('flagmaps.cli' in sys.modules); "
                        "flagmaps.analyze_map; "
                        "print('flagmaps.cli' in sys.modules)")
    assert (result.returncode, result.stdout) == (0, "False\nTrue\n")
    from flagmaps import cli
    for name in ("AnalysisReport", "analyze_map", "census_reflexible"):
        assert name in flagmaps.__all__
        assert getattr(flagmaps, name) is getattr(cli, name)
    assert flagmaps.cli is cli
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        flagmaps.nothing
