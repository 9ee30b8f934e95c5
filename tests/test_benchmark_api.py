"""The benchmark's workloads still find every tricent name they import, call
each with arguments its signature accepts, and its traced steps still
reproduce atec.

perfbench/workloads.py is parsed, not imported, so this holds without the
benchmark's own modules on the path.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from tricent import atec, build_operator, enumerate_triangles, load_dataset, make_report, solve_spectral
from tricent.tensor import DEFAULT_TOL

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


def tricent_calls() -> list[tuple[str, int, list[str], int]]:
    """(name, positional count, keyword names, line) of every call the
    workloads make to a name imported from tricent, either directly or
    through the tracer as tr.call(span, fn, *args, **kwargs)."""
    imported = {name for _, name in tricent_imports()}
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn, args = node.func, node.args
        if isinstance(fn, ast.Attribute) and fn.attr == "call" and len(args) >= 2:
            fn, args = args[1], args[2:]
        if isinstance(fn, ast.Name) and fn.id in imported:
            # unpacked arguments could not be counted here
            assert not any(isinstance(a, ast.Starred) for a in args), node.lineno
            assert all(k.arg is not None for k in node.keywords), node.lineno
            calls.append((fn.id, len(args), [k.arg for k in node.keywords], node.lineno))
    return calls


def test_every_call_the_benchmark_makes_fits_the_signature():
    calls = tricent_calls()
    assert {"atec", "build_operator", "solve_spectral", "make_report"} <= {c[0] for c in calls}
    functions = {
        name: getattr(importlib.import_module(module), name) for module, name in tricent_imports()
    }
    rejected = []
    for name, positional, keywords, line in calls:
        try:
            inspect.signature(functions[name]).bind(*range(positional), **dict.fromkeys(keywords))
        except TypeError as exc:
            rejected.append(f"workloads.py:{line}: {name}: {exc}")
    assert rejected == []


def atec_by_public_steps(graph, alpha, triangles):
    """The steps the benchmark's traced ops run in place of atec: build the
    operator, solve with a wrapper assigned to op.apply, build the report."""
    op = build_operator(graph, triangles, alpha)
    inner = op.apply
    op.apply = lambda x: inner(x)
    result = solve_spectral(op, tol=DEFAULT_TOL)
    return make_report(
        "atec",
        {"alpha": op.alpha},
        graph.labels,
        result.x,
        normalization="unit-euclidean",
        meta={
            "rho": result.rho,
            "iterations": result.iterations,
            "residual": result.residual,
            "tolerance": DEFAULT_TOL,
        },
    )


@pytest.mark.parametrize("name", ["karate", "paper-g14"])
def test_public_steps_equal_atec_bitwise(name):
    """Every benchmark op must equal its traced warm-up op bitwise; a solver
    change that breaks that would fail every op of the benchmark."""
    graph = load_dataset(name)
    triangles = enumerate_triangles(graph)
    for alpha in (1.0, 0.2, 0.01):
        steps = atec_by_public_steps(graph, alpha, triangles)
        plain = atec(graph, alpha, triangles=triangles)
        assert steps.scores.tobytes() == plain.scores.tobytes()
        assert steps.meta == plain.meta
        assert steps.params == plain.params
        assert steps.ranking == plain.ranking
