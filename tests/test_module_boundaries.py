"""Module boundaries read from the source: ``analysis`` reaches the packed
polynomial kernel of ``reps`` through public names only."""

import ast
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src" / "uvbraid"


def test_analysis_imports_no_private_reps_name():
    tree = ast.parse((_SRC / "analysis.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level, node.module) in ((1, "reps"), (0, "uvbraid.reps"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == ["_typed"]
