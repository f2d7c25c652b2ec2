"""The package is written in the oldest Python that pyproject.toml allows."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def oldest_python():
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                             text).groups()
    return int(major), int(minor)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "flagmaps").glob("*.py")),
                         ids=lambda path: path.name)
def test_source_parses_as_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path),
              feature_version=oldest_python())


def test_oldest_python_rejects_newer_syntax():
    assert oldest_python() == (3, 10)
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=oldest_python())
