"""The vectorised operator build and competition rankings against loop oracles.

Each library path must reproduce its loop-based reference exactly: the same
operator index arrays, bitwise-equal coefficients, and equal ranking tuples.
Graphs are seeded random graphs (triangle-free and single-edge ones included)
over labels chosen to trip numeric label ordering: "01", "1" and "+1" all
parse as the integer 1, "1_0" parses as 10.
"""

import random
import types

import numpy as np
import pytest

from tricent import (
    AlphaTriangleOperator,
    Graph,
    degree_centrality,
    enumerate_triangles,
    make_report,
    triangle_importance,
)
from tricent.analysis import TRIANGLE_TIE_TOL, _rank_triangles
from tricent.report import VERTEX_TIE_TOL
from tricent.tensor import MAX_VERTICES

from oracles import operator_arrays_by_loops, rank_scores, rank_triangles

ADVERSARIAL_LABELS = ["01", "1", "+1", "1_0", "-3", "a", "B", "é"]
ALPHAS = (1.0, 0.8, 0.6, 0.4, 0.2, 0.01)


def adversarial_labels(rng: random.Random, n: int) -> list[str]:
    """n distinct labels: the adversarial set first, then numeric look-alikes."""
    labels = list(ADVERSARIAL_LABELS)
    seen = set(labels)
    i = 0
    while len(labels) < n:
        i += 1
        for lab in (str(i), f"0{i}", f"+{i}", f"-{i}", f"{i}_{i}", f"v{i}"):
            if lab not in seen:
                seen.add(lab)
                labels.append(lab)
    labels = labels[:n]
    rng.shuffle(labels)
    return labels


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Erdos-Renyi G(n, p) over adversarial labels; may be disconnected."""
    labels = adversarial_labels(rng, n)
    pairs = [
        (labels[u], labels[v])
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    if not pairs:
        pairs = [(labels[0], labels[1])]
    rng.shuffle(pairs)
    return Graph.from_edge_labels(pairs)


def random_tree(rng: random.Random, n: int) -> Graph:
    labels = adversarial_labels(rng, n)
    return Graph.from_edge_labels(
        [(labels[rng.randrange(v)], labels[v]) for v in range(1, n)]
    )


def sample_graphs() -> list[Graph]:
    rng = random.Random(20250607)
    graphs = [Graph.from_edge_labels([("01", "1")]), random_tree(rng, 12)]
    for _ in range(12):
        graphs.append(random_graph(rng, rng.randrange(3, 40), rng.choice((0.1, 0.3, 0.6))))
    return graphs


def chained_scores(rng: random.Random, count: int, tie_tol: float) -> np.ndarray:
    """Clusters of scores spaced 0.6 * tie_tol apart, so ties chain within each.

    Cluster ends lie further apart than tie_tol, and clusters are separated by
    clear gaps; the result is shuffled.
    """
    values = []
    base = 1.0
    while len(values) < count:
        size = rng.randrange(1, 6)
        values += [base + 0.6 * tie_tol * step for step in range(size)]
        base -= rng.choice((0.1, 0.01, 2 * tie_tol))
    values = values[:count]
    rng.shuffle(values)
    return np.array(values)


GRAPHS = sample_graphs()


def test_sample_covers_triangle_free_and_triangle_rich_graphs():
    counts = [len(enumerate_triangles(g)) for g in GRAPHS]
    assert GRAPHS[0].m == 1
    assert counts.count(0) >= 2
    assert max(counts) >= 50


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_operator_build_matches_loop_build(graph):
    triangles = enumerate_triangles(graph)
    for alpha in ALPHAS:
        op = AlphaTriangleOperator(graph, triangles, alpha, allow_disconnected=True)
        rows, cols_j, cols_k, coeffs = operator_arrays_by_loops(graph, triangles, alpha)
        for got, want in ((op._rows, rows), (op._cols_j, cols_j), (op._cols_k, cols_k)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert op._coeffs.dtype == coeffs.dtype
        assert op._coeffs.tobytes() == coeffs.tobytes()


def test_operator_build_matches_loop_build_on_celegans(celegans, celegans_triangles):
    op = AlphaTriangleOperator(celegans, celegans_triangles, 0.2)
    rows, cols_j, cols_k, coeffs = operator_arrays_by_loops(celegans, celegans_triangles, 0.2)
    assert np.array_equal(op._rows, rows)
    assert np.array_equal(op._cols_j, cols_j)
    assert np.array_equal(op._cols_k, cols_k)
    assert op._coeffs.tobytes() == coeffs.tobytes()


def test_operator_rejects_graphs_beyond_the_key_range():
    too_big = types.SimpleNamespace(n=MAX_VERTICES + 1)
    with pytest.raises(ValueError, match=f"at most {MAX_VERTICES}"):
        AlphaTriangleOperator(too_big, None, 0.5)
    assert MAX_VERTICES**3 < 2**63 <= (MAX_VERTICES + 1) ** 3


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_vertex_ranking_matches_loop_ranking(graph):
    rng = random.Random(graph.n * 1000 + graph.m)
    degrees = degree_centrality(graph).scores  # exact integer ties
    cases = [
        (degrees, VERTEX_TIE_TOL),
        (np.array([rng.random() for _ in range(graph.n)]), VERTEX_TIE_TOL),
        (chained_scores(rng, graph.n, VERTEX_TIE_TOL), VERTEX_TIE_TOL),
        (chained_scores(rng, graph.n, 1e-3), 1e-3),
        (np.zeros(graph.n), VERTEX_TIE_TOL),
    ]
    for scores, tie_tol in cases:
        report = make_report("x", {}, graph.labels, scores, "raw", tie_tol=tie_tol)
        assert report.ranking == rank_scores(graph.labels, scores, tie_tol)


@pytest.mark.parametrize(
    "graph", [g for g in GRAPHS if len(enumerate_triangles(g))], ids=lambda g: f"n{g.n}m{g.m}"
)
def test_triangle_ranking_matches_loop_ranking(graph):
    rng = random.Random(graph.n * 1000 + graph.m)
    triangles = enumerate_triangles(graph)
    t = len(triangles)
    degrees = degree_centrality(graph).scores

    got = triangle_importance(graph, triangles, degrees)
    tri = np.asarray(triangles.triangles)
    sums = degrees[tri[:, 0]] + degrees[tri[:, 1]] + degrees[tri[:, 2]]
    want = rank_triangles("triangle-importance", {}, graph, triangles, sums, TRIANGLE_TIE_TOL)
    assert got.entries == want.entries

    cases = [
        (np.array([float(rng.randrange(3)) for _ in range(t)]), TRIANGLE_TIE_TOL),
        (np.array([rng.random() for _ in range(t)]), TRIANGLE_TIE_TOL),
        (chained_scores(rng, t, TRIANGLE_TIE_TOL), TRIANGLE_TIE_TOL),
        (chained_scores(rng, t, 1e-3), 1e-3),
    ]
    for scores, tie_tol in cases:
        got = _rank_triangles("i", {"alpha": 0.2}, graph, triangles, scores, tie_tol)
        want = rank_triangles("i", {"alpha": 0.2}, graph, triangles, scores, tie_tol)
        assert got.entries == want.entries
        assert got.params == want.params


def test_cached_index_arrays_are_read_only(g14, g14_triangles):
    edges = g14.edge_array
    tris = g14_triangles.triangle_array
    assert edges is g14.edge_array and tris is g14_triangles.triangle_array
    assert edges.dtype == np.int64 and tris.dtype == np.int64
    assert edges.tolist() == [list(e) for e in g14.edges]
    assert tris.tolist() == [list(t) for t in g14_triangles.triangles]
    with pytest.raises(ValueError, match="read-only"):
        edges[0, 0] = 5
    with pytest.raises(ValueError, match="read-only"):
        tris[0, 0] = 5
