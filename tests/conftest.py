"""Shared fixtures. BLAS is pinned to one thread here, before anything
imports numpy: LAPACK's eigh gives other bits under other thread counts,
and tests/cli_record.json was made with the same pin (cli_grid.BLAS_ENV)."""

import os

import cli_grid

os.environ.update(cli_grid.BLAS_ENV)

import pytest  # noqa: E402

from tricent import Graph, enumerate_triangles, load_dataset  # noqa: E402


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
