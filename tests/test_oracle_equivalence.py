"""Vectorised operator build, rankings and rank correlations against loop oracles.

Each library path must reproduce its loop-based reference exactly: the same
operator index arrays, bitwise-equal coefficients, equal ranking tuples and
equal correlation floats.
Graphs are seeded random graphs (triangle-free and single-edge ones included)
over labels chosen to trip numeric label ordering: "01", "1" and "+1" all
parse as the integer 1, "1_0" parses as 10.
"""

import math
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
    rank_correlation,
    triangle_importance,
)
from tricent import analysis
from tricent.analysis import RANK_TIE_TOL, TRIANGLE_TIE_TOL, _rank_triangles
from tricent.report import VERTEX_TIE_TOL
from tricent.tensor import MAX_VERTICES

from oracles import (
    average_ranks,
    kendall_tau_b,
    operator_arrays_by_loops,
    pearson_of_ranks,
    rank_scores,
    rank_triangles,
)

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


# --- rank correlations ------------------------------------------------------

METHODS = ("kendall", "spearman")


def oracle_correlation(a, b, method, tie_tol=RANK_TIE_TOL):
    if method == "kendall":
        return kendall_tau_b(a, b, tie_tol)
    return pearson_of_ranks(average_ranks(a, tie_tol), average_ranks(b, tie_tol))


def correlation_or_error(compute):
    try:
        return compute()
    except ValueError as exc:
        return str(exc)


def assert_correlation_matches_oracle(a, b, tie_tol=RANK_TIE_TOL):
    """Library == oracle for both methods, error message included, and symmetric."""
    for method in METHODS:
        want = correlation_or_error(lambda: oracle_correlation(a, b, method, tie_tol))
        got = correlation_or_error(lambda: rank_correlation(a, b, method, tie_tol=tie_tol))
        assert got == want, (method, got, want)
        swapped = correlation_or_error(lambda: rank_correlation(b, a, method, tie_tol=tie_tol))
        assert swapped == got, (method, swapped, got)


def correlation_cases() -> list[tuple[str, np.ndarray, np.ndarray, float]]:
    """Seeded score pairs: exact ties, integers, chained near-ties, n = 2.

    Integer scores with tie_tol 1 put pair differences exactly on the tie
    boundary.
    """
    rng = random.Random(20251018)
    cases = [
        ("n2-agree", np.array([1.0, 2.0]), np.array([3.0, 5.0]), RANK_TIE_TOL),
        ("n2-reverse", np.array([1.0, 2.0]), np.array([5.0, 3.0]), RANK_TIE_TOL),
    ]
    for k in range(6):
        n = rng.randrange(3, 60)
        few = lambda: np.array([float(rng.randrange(3)) for _ in range(n)])
        wide = lambda: np.array([float(rng.randrange(50)) for _ in range(n)])
        uniform = lambda: np.array([rng.random() for _ in range(n)])
        cases += [
            (f"exact-ties-{k}", few(), few(), RANK_TIE_TOL),
            (f"integers-{k}", wide(), wide(), RANK_TIE_TOL),
            (f"ties-vs-uniform-{k}", few(), uniform(), RANK_TIE_TOL),
            (f"uniform-{k}", uniform(), uniform(), RANK_TIE_TOL),
            (
                f"chained-{k}",
                chained_scores(rng, n, RANK_TIE_TOL),
                chained_scores(rng, n, RANK_TIE_TOL),
                RANK_TIE_TOL,
            ),
            (f"chained-wide-tol-{k}", chained_scores(rng, n, 1e-3), uniform(), 1e-3),
            # differences of exactly tie_tol tie; with tie_tol 0 only equal scores do
            (f"integers-tol-1-{k}", wide(), few(), 1.0),
            (f"integers-tol-0-{k}", few(), wide(), 0.0),
        ]
    return cases


CORRELATION_CASES = correlation_cases()


@pytest.mark.parametrize(
    "a, b, tie_tol", [c[1:] for c in CORRELATION_CASES], ids=[c[0] for c in CORRELATION_CASES]
)
def test_rank_correlation_matches_loop_oracles(a, b, tie_tol):
    assert_correlation_matches_oracle(a, b, tie_tol)


def test_degenerate_ties_raise_like_the_oracles():
    tol = RANK_TIE_TOL
    within = np.array([1.0, 1.0 + 0.5 * tol])  # not constant, but one tie
    chain = np.array([1.0, 1.0 + 0.6 * tol, 1.0 + 1.2 * tol])  # chained, not pairwise
    for a, b in ((within, np.array([1.0, 2.0])), (chain, np.array([1.0, 2.0, 3.0]))):
        assert_correlation_matches_oracle(a, b)
    with pytest.raises(ValueError, match="all scores tie on one side"):
        rank_correlation(within, np.array([1.0, 2.0]), "kendall")
    with pytest.raises(ValueError, match="all scores tie on one side"):
        rank_correlation(chain, np.array([1.0, 2.0, 3.0]), "spearman")
    # pairwise, the chain's two ends do not tie, so kendall is defined
    assert rank_correlation(chain, np.array([1.0, 2.0, 3.0]), "kendall") == 1 / math.sqrt(3)


@pytest.mark.parametrize("offset", (-1, 0, 1, 2))
def test_kendall_at_the_block_boundary(offset):
    """n around sqrt(_PAIR_BLOCK): one full block, then a short trailing block."""
    n = math.isqrt(analysis._PAIR_BLOCK) + offset
    rng = random.Random(n)
    a = np.array([float(rng.randrange(n // 4)) for _ in range(n)])
    b = chained_scores(rng, n, RANK_TIE_TOL)
    assert_correlation_matches_oracle(a, b)


@pytest.mark.parametrize("block", (1, 5, 64))
def test_kendall_blocks_and_spearman_chunks_are_exact(monkeypatch, block):
    """Tiny Kendall blocks and int64 bounds force many blocks and dot-product chunks."""
    monkeypatch.setattr(analysis, "_PAIR_BLOCK", block)
    monkeypatch.setattr(analysis, "_INT64_MAX", 4 * block * block + 100)
    rng = random.Random(block)
    for _ in range(8):
        n = rng.randrange(2, 40)
        a = np.array([float(rng.randrange(6)) for _ in range(n)])
        b = np.array([rng.random() for _ in range(n)])
        assert_correlation_matches_oracle(a, b)


def test_spearman_length_limit(monkeypatch):
    monkeypatch.setattr(analysis, "_MAX_RANKED", 3)
    a, b = np.arange(4.0), np.array([2.0, 1.0, 4.0, 3.0])
    with pytest.raises(ValueError, match="at most 3 scores, got 4"):
        rank_correlation(a, b, "spearman")
    assert rank_correlation(a, b, "kendall") == oracle_correlation(a, b, "kendall")
