"""The benchmark's workloads still find every tricent name they import.

perfbench/workloads.py is parsed, not imported, so this holds without the
benchmark's own modules on the path.
"""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def tricent_imports() -> list[tuple[str, str]]:
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module in ("tricent", "tricent.tensor")
        for alias in node.names
    ]


def test_every_name_the_benchmark_imports_resolves():
    imported = tricent_imports()
    assert ("tricent", "build_operator") in imported
    assert ("tricent.tensor", "DEFAULT_TOL") in imported
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
