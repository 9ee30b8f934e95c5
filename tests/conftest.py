"""Shared fixtures. BLAS is pinned to one thread here, before anything
imports numpy: LAPACK's eigh gives other bits under other thread counts,
and tests/cli_record.json was made with the same pin (cli_grid.BLAS_ENV)."""

import gc
import os

import cli_grid

os.environ.update(cli_grid.BLAS_ENV)

import pytest  # noqa: E402

from tricent import Graph, centrality, enumerate_triangles, load_dataset  # noqa: E402


@pytest.fixture(autouse=True)
def collector_state_kept():
    """Fail a test that leaves the garbage collector on or off other than it
    found it. No library path may call gc.enable() or gc.disable(): the
    collector's state is the calling program's, and a change that leaks
    would alter every later test's memory behaviour."""
    enabled = gc.isenabled()
    yield
    assert gc.isenabled() is enabled, "the test changed gc.isenabled()"


@pytest.fixture()
def no_dense_adjacency(monkeypatch):
    """centrality.adjacency_matrix fails if anything calls it: a size guard
    under test must refuse before any n x n array exists."""

    def refuse(graph):
        raise AssertionError(f"an n x n adjacency matrix was built for n = {graph.n}")

    monkeypatch.setattr(centrality, "adjacency_matrix", refuse)


@pytest.fixture(scope="session")
def k3():
    return Graph.from_edge_labels([("1", "2"), ("2", "3"), ("1", "3")])


@pytest.fixture(scope="session")
def p3():
    return Graph.from_edge_labels([("1", "2"), ("2", "3")])


@pytest.fixture(scope="session")
def g14():
    return load_dataset("paper-g14")


@pytest.fixture(scope="session")
def g14_triangles(g14):
    return enumerate_triangles(g14)


@pytest.fixture(scope="session")
def karate():
    return load_dataset("karate")


@pytest.fixture(scope="session")
def dolphins():
    return load_dataset("dolphins")


@pytest.fixture(scope="session")
def celegans():
    return load_dataset("celegans-metabolic")


@pytest.fixture(scope="session")
def celegans_triangles(celegans):
    return enumerate_triangles(celegans)
