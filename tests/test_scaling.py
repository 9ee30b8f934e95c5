"""Memory grows linearly on the sparse paths.

Each stage runs once on a seeded Holme-Kim graph (tests/oracles.py) at
n = 1000 and once at n = 4000, and the tracemalloc peak of the call, above
what was allocated before it, must grow at most 6 times. The graphs have
about 4n edges, so a stage linear in n + m reads about 4 and a quadratic one
(an n x n array) about 16: 6 separates the two with room for the fixed
costs and the noise of small allocations. Betweenness takes O(nm) time, so
it runs at n = 250 and n = 1000, the same factor of 4. The bound is the test;
a stage that fails it has grown a superlinear allocation, and the bound is
not to be raised to let it through.
"""

import io
import random
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest

from tricent import (
    RankedVertex,
    atec,
    betweenness_centrality,
    degree_and_triangle_stats,
    degree_centrality,
    dump_edge_list,
    eigenvector_centrality,
    enumerate_triangles,
    load_edge_list,
    rank_correlation,
    removal_experiment,
    triangle_centrality,
    triangle_importance,
)
from tricent import cli
from tricent.report import label_positions

import oracles

SIZES = (1000, 4000)
BETWEENNESS_SIZES = (250, 1000)
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


def stats(text):
    graph = load_edge_list(io.StringIO(text))
    triangles = enumerate_triangles(graph)
    return lambda: degree_and_triangle_stats(graph, triangles)


def importance(text):
    graph = load_edge_list(io.StringIO(text))
    triangles = enumerate_triangles(graph)
    scores = degree_centrality(graph).scores
    return lambda: triangle_importance(graph, triangles, scores)


def dc_and_tc(text):
    graph = load_edge_list(io.StringIO(text))
    triangles = enumerate_triangles(graph)
    return degree_centrality(graph).scores, triangle_centrality(graph, triangles).scores


def spearman(text):
    a, b = dc_and_tc(text)
    return lambda: rank_correlation(a, b, "spearman")


def kendall(text):
    a, b = dc_and_tc(text)
    return lambda: rank_correlation(a, b, "kendall")


def removal(text):
    graph = load_edge_list(io.StringIO(text))
    return lambda: removal_experiment(graph, graph.labels[:3])


def betweenness(text):
    graph = load_edge_list(io.StringIO(text))
    return lambda: betweenness_centrality(graph)


# The tables the CLI writes, each as (CSV names, JSON keys, columns); the
# sweep's JSON rows are arrays, so it has no keys.


def sweep_table(text):
    graph = load_edge_list(io.StringIO(text))
    triangles = enumerate_triangles(graph)
    order = np.argsort(label_positions(graph.labels))
    alphas = (1.0, 0.2)
    scores = [atec(graph, alpha, triangles=triangles).scores[order] for alpha in alphas]
    names = ("label", *(f"alpha={alpha}" for alpha in alphas))
    return names, None, [np.array(graph.labels, dtype=object)[order], *scores]


def centrality_table(text):
    graph = load_edge_list(io.StringIO(text))
    return RankedVertex._fields, RankedVertex._fields, atec(graph, 0.2).ranking.columns


def triangle_table(text):
    graph = load_edge_list(io.StringIO(text))
    ranking = triangle_importance(graph, enumerate_triangles(graph), degree_centrality(graph))
    names = ("v1", "v2", "v3", "score", "rank")
    return names, names, ranking.entries.columns


def csv_of(table):
    def stage(text):
        names, _, columns = table(text)
        return lambda: cli._csv(names, columns)

    stage.__name__ = f"{table.__name__}_csv"
    return stage


def json_of(table):
    def stage(text):
        _, keys, columns = table(text)
        return lambda: cli._json_array(keys, columns, "  ")

    stage.__name__ = f"{table.__name__}_json"
    return stage


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


WRITERS = tuple(
    write(table)
    for table in (sweep_table, centrality_table, triangle_table)
    for write in (csv_of, json_of)
)
SPARSE = (
    parse, listing, atec_build_and_solve, ec, tc, stats, importance, spearman, kendall, removal
)
STAGES = (*((stage, SIZES) for stage in (*SPARSE, *WRITERS)), (betweenness, BETWEENNESS_SIZES))


@pytest.mark.parametrize("stage, sizes", STAGES, ids=[stage.__name__ for stage, _ in STAGES])
def test_peak_memory_grows_linearly(stage, sizes):
    small, large = (peak_bytes(stage, n) for n in sizes)
    assert large / small <= BOUND, f"{stage.__name__}: {small} -> {large} bytes"
