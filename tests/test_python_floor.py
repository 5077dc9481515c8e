"""The declared Python floor: every module of the package and of its tests
parses under the grammar of the lowest version ``requires-python`` admits.
This checks syntax only, not which standard-library names a module uses."""

import ast
import re
from pathlib import Path

import pytest

_TESTS = Path(__file__).resolve().parent
_ROOT = _TESTS.parent
_FLOOR = tuple(
    int(x)
    for x in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$',
        (_ROOT / "pyproject.toml").read_text(),
        re.M,
    ).groups()
)


@pytest.mark.parametrize(
    "path",
    sorted((_ROOT / "src" / "uvbraid").glob("*.py")) + sorted(_TESTS.glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_module_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_FLOOR)
