"""Memory grows linearly on the sparse paths.

Each stage runs once on a seeded Holme-Kim graph (tests/oracles.py) at
n = 1000 and once at n = 4000, and the tracemalloc peak of the call, above
what was allocated before it, must grow at most 6 times. The graphs have
about 4n edges, so a stage linear in n + m reads about 4 and a quadratic one
(an n x n array) about 16: 6 separates the two with room for the fixed
costs and the noise of small allocations. The bound is the test; a stage
that fails it has grown a superlinear allocation, and the bound is not to be
raised to let it through.
"""

import io
import random
import tracemalloc
from functools import lru_cache

import pytest

from tricent import (
    atec,
    dump_edge_list,
    eigenvector_centrality,
    enumerate_triangles,
    load_edge_list,
    triangle_centrality,
)

import oracles

SIZES = (1000, 4000)
BOUND = 6


@lru_cache(maxsize=None)
def edge_text(n: int) -> str:
    return dump_edge_list(oracles.holme_kim_graph(random.Random(21), n))


def parse(text):
    return lambda: load_edge_list(io.StringIO(text))


def listing(text):
    graph = load_edge_list(io.StringIO(text))
    return lambda: enumerate_triangles(graph)


def atec_build_and_solve(text):
    graph = load_edge_list(io.StringIO(text))
    triangles = enumerate_triangles(graph)
    return lambda: atec(graph, 0.2, triangles=triangles)


def ec(text):
    graph = load_edge_list(io.StringIO(text))
    return lambda: eigenvector_centrality(graph)


def tc(text):
    graph = load_edge_list(io.StringIO(text))
    triangles = enumerate_triangles(graph)
    return lambda: triangle_centrality(graph, triangles)


def peak_bytes(stage, n: int) -> int:
    """The tracemalloc peak of one call of stage on the n-vertex graph,
    above the memory traced when the call starts; the inputs are built
    before tracing begins."""
    call = stage(edge_text(n))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


STAGES = (parse, listing, atec_build_and_solve, ec, tc)


@pytest.mark.parametrize("stage", STAGES, ids=lambda stage: stage.__name__)
def test_peak_memory_grows_linearly(stage):
    small, large = (peak_bytes(stage, n) for n in SIZES)
    assert large / small <= BOUND, f"{stage.__name__}: {small} -> {large} bytes"
