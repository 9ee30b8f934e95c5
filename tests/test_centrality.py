import io
import math
import random
import warnings

import numpy as np
import pytest

from tricent import (
    DuplicateEdgeWarning,
    Graph,
    GraphValidationError,
    NotConnectedError,
    atec,
    betweenness_centrality,
    cycle_index_fiedler,
    degree_centrality,
    eigenvector_centrality,
    enumerate_triangles,
    fiedler_vector,
    is_connected,
    laplacian_matrix,
    load_edge_list,
    subgraph_centrality,
    triangle_centrality,
)
from tricent import centrality
from tricent.centrality import DENSE_SIZE_LIMIT

from oracles import (
    adjacency_of,
    betweenness_by_enumeration,
    complete_graph,
    path_graph,
    random_connected_graph,
    relabeled,
    star_graph,
    subgraph_centrality_by_taylor,
)


class TestDegreeCentrality:
    def test_g14_row(self, g14):
        rep = degree_centrality(g14)
        assert rep.score_of("8") == 7
        for lab in ("1", "5", "4"):
            assert rep.score_of(lab) == 3
        for lab in ("2", "3", "6", "7"):
            assert rep.score_of(lab) == 2
        for lab in map(str, range(9, 15)):
            assert rep.score_of(lab) == 1
        assert rep.ranking[0].label == "8"

    def test_k3(self, k3):
        assert set(degree_centrality(k3).scores) == {2.0}

    def test_star(self):
        rep = degree_centrality(star_graph(6))
        assert rep.score_of("c") == 6
        assert rep.score_of("1") == 1


class TestEigenvectorCentrality:
    def test_k3_uniform(self, k3):
        rep = eigenvector_centrality(k3)
        assert np.allclose(rep.scores, 1 / math.sqrt(3), atol=1e-9)

    def test_p3(self, p3):
        rep = eigenvector_centrality(p3)
        assert np.allclose(rep.scores, [0.5, math.sqrt(2) / 2, 0.5], atol=1e-8)

    def test_karate_top_two(self, karate):
        assert eigenvector_centrality(karate).top(2) == ["34", "1"]

    def test_residual_and_positivity(self, karate, dolphins):
        for g in (karate, dolphins):
            rep = eigenvector_centrality(g)
            a = adjacency_of(g)
            lam = rep.meta["eigenvalue"]
            assert np.max(np.abs(a @ rep.scores - lam * rep.scores)) < 1e-8
            assert np.all(rep.scores > 0)

    def test_bipartite_converges(self):
        # K2 and even cycles defeat unshifted power iteration; the +1 shift must not
        g = Graph.from_edge_labels([("1", "2")])
        rep = eigenvector_centrality(g)
        assert np.allclose(rep.scores, 1 / math.sqrt(2), atol=1e-9)

    def test_disconnected_rejected(self):
        g = Graph.from_edge_labels([("a", "b"), ("c", "d")])
        with pytest.raises(NotConnectedError):
            eigenvector_centrality(g)

    def test_bad_tol_rejected(self, k3):
        for tol in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                eigenvector_centrality(k3, tol=tol)

    def test_bad_max_iter_rejected(self, k3):
        for max_iter in (0, -1):
            with pytest.raises(ValueError, match="max_iter"):
                eigenvector_centrality(k3, max_iter=max_iter)


class TestTriangleCentrality:
    def test_g14_values_and_ratio(self, g14, g14_triangles):
        rep = triangle_centrality(g14, g14_triangles)
        assert rep.score_of("4") == pytest.approx(1.0)
        assert rep.score_of("1") == pytest.approx(0.5)
        assert rep.score_of("4") / rep.score_of("1") == pytest.approx(2.0)
        assert rep.score_of("8") == 0
        assert rep.score_of("9") == 0
        assert rep.ranking[0].label == "4"

    def test_k3_uniform_positive(self, k3):
        rep = triangle_centrality(k3, enumerate_triangles(k3))
        assert np.ptp(rep.scores) == 0
        assert rep.scores[0] > 0

    def test_triangle_free_all_zero_with_warning(self, p3):
        with pytest.warns(UserWarning, match="no triangles"):
            rep = triangle_centrality(p3, enumerate_triangles(p3))
        assert not rep.scores.any()

    def test_orbit_equality_on_g14(self, g14, g14_triangles):
        rep = triangle_centrality(g14, g14_triangles)
        assert rep.score_of("1") == rep.score_of("5")
        assert len({rep.score_of(l) for l in ("2", "3", "6", "7")}) == 1


class TestBetweennessCentrality:
    def test_p3_raw_pair_counts(self, p3):
        rep = betweenness_centrality(p3)
        assert rep.score_of("2") == 1.0
        assert rep.score_of("1") == 0.0

    def test_k3_all_zero(self, k3):
        assert not betweenness_centrality(k3).scores.any()

    def test_g14_unit_euclidean_row(self, g14):
        rep = betweenness_centrality(g14).unit_euclidean()
        assert rep.score_of("1") == pytest.approx(0.2664, abs=2e-3)
        assert rep.score_of("2") == 0
        assert rep.score_of("4") == pytest.approx(0.6176, abs=2e-3)
        assert rep.score_of("8") == pytest.approx(0.6903, abs=2e-3)
        assert rep.score_of("9") == 0

    def test_exact_mode_matches_enumeration(self):
        rng = random.Random(2718)
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(3, 9), 0.3)
            exact = betweenness_centrality(g, exact=True)
            oracle = [float(b) for b in betweenness_by_enumeration(g)]
            assert np.array_equal(exact.scores, np.array(oracle))

    def test_float_mode_close_to_exact(self):
        rng = random.Random(1414)
        for _ in range(5):
            g = random_connected_graph(rng, 12, 0.3)
            a = betweenness_centrality(g).scores
            b = betweenness_centrality(g, exact=True).scores
            assert np.allclose(a, b, atol=1e-12)


class TestSubgraphCentrality:
    def test_k2_is_cosh_one(self):
        g = Graph.from_edge_labels([("1", "2")])
        rep = subgraph_centrality(g)
        assert np.allclose(rep.scores, math.cosh(1.0), atol=1e-12)

    def test_k3_uniform(self, k3):
        assert np.ptp(subgraph_centrality(k3).scores) < 1e-12

    def test_g14_unit_euclidean_row(self, g14):
        rep = subgraph_centrality(g14).unit_euclidean()
        assert rep.score_of("1") == pytest.approx(0.3023, abs=2e-3)
        assert rep.score_of("2") == pytest.approx(0.2330, abs=2e-3)
        assert rep.score_of("8") == pytest.approx(0.6042, abs=2e-3)
        assert rep.score_of("9") == pytest.approx(0.1565, abs=2e-3)

    def test_matches_taylor_oracle(self):
        rng = random.Random(5150)
        for n in (6, 20, 40, 64):
            g = random_connected_graph(rng, n, 0.15)
            got = subgraph_centrality(g).scores
            want = subgraph_centrality_by_taylor(g)
            assert np.max(np.abs(got - want) / np.abs(want)) < 1e-8


class TestFiedlerVector:
    def test_p3(self, p3):
        v = fiedler_vector(p3)
        lap = laplacian_matrix(p3)
        lam2 = float(v @ lap @ v)
        assert lam2 == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(v, [math.sqrt(0.5), 0.0, -math.sqrt(0.5)], atol=1e-8)

    def test_k2(self):
        g = Graph.from_edge_labels([("1", "2")])
        v = fiedler_vector(g)
        assert float(v @ laplacian_matrix(g) @ v) == pytest.approx(2.0, abs=1e-10)
        assert np.allclose(v, [math.sqrt(0.5), -math.sqrt(0.5)], atol=1e-10)

    def test_k3_degenerate_pair_still_valid(self, k3):
        v = fiedler_vector(k3)
        lap = laplacian_matrix(k3)
        lam2 = float(v @ lap @ v)
        assert lam2 == pytest.approx(3.0, abs=1e-9)
        assert np.max(np.abs(lap @ v - lam2 * v)) < 1e-8
        assert abs(v.sum()) < 1e-10

    def test_properties_on_real_graphs(self, karate, dolphins, celegans):
        for g in (karate, dolphins, celegans):
            v = fiedler_vector(g)
            lap = laplacian_matrix(g)
            lam2 = float(v @ lap @ v)
            assert lam2 > 0
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12
            assert abs(v.sum()) < 1e-10
            assert np.max(np.abs(lap @ v - lam2 * v)) < 1e-8

    def test_sign_convention(self, p3):
        assert fiedler_vector(p3)[0] > 0

    def test_disconnected_rejected(self):
        g = Graph.from_edge_labels([("a", "b"), ("c", "d")])
        with pytest.raises(NotConnectedError):
            fiedler_vector(g)

    def test_single_vertex_rejected(self):
        """One vertex is connected but has no second eigenvalue."""
        with pytest.warns(DuplicateEdgeWarning):
            g = load_edge_list(io.StringIO("a a\n"), dedupe=True)
        assert g.n == 1 and is_connected(g)
        with pytest.raises(GraphValidationError, match="at least two vertices, got 1"):
            fiedler_vector(g)


class TestRelabelingInvariance:
    def test_rankings_survive_relabeling(self, g14):
        rng = random.Random(8080)
        shuffled, mapping = relabeled(g14, rng)
        measures = [
            (degree_centrality, ()),
            (eigenvector_centrality, ()),
            (betweenness_centrality, ()),
            (subgraph_centrality, ()),
        ]
        for fn, extra in measures:
            base = fn(g14, *extra)
            moved = fn(shuffled, *extra)
            for entry in base.ranking:
                assert moved.score_of(mapping[entry.label]) == pytest.approx(
                    entry.score, rel=1e-9, abs=1e-12
                )
        base = triangle_centrality(g14, enumerate_triangles(g14))
        moved = triangle_centrality(shuffled, enumerate_triangles(shuffled))
        for entry in base.ranking:
            assert moved.score_of(mapping[entry.label]) == pytest.approx(
                entry.score, rel=1e-12, abs=1e-12
            )


def test_sc_size_guard(no_dense_adjacency):
    """One vertex over the limit is refused before any n x n array exists."""
    limit = f"n = {DENSE_SIZE_LIMIT + 1} exceeds the {DENSE_SIZE_LIMIT} limit"
    with pytest.raises(ValueError, match=limit):
        subgraph_centrality(path_graph(DENSE_SIZE_LIMIT + 1))


def test_sc_refuses_scores_that_overflow():
    """Every SC score of K_n is exp(n - 1) / n + (1 - 1/n) / e: K_709 is
    finite, while K_711's exp(lambda_max = 710) overflows. The overflow is
    refused by name, without a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scores = subgraph_centrality(complete_graph(709)).scores
        assert np.all(np.isfinite(scores))
        assert scores.max() == pytest.approx(math.exp(708) / 709, rel=1e-9)
        with pytest.raises(ValueError, match=r"overflows: lambda_max = 710 gives a score of inf"):
            subgraph_centrality(complete_graph(711))


@pytest.mark.parametrize("seed", range(10))
def test_every_report_of_the_six_measures_is_finite(seed):
    """On seeded random connected graphs, triangle-free ones included, every
    score and every ranked row of atec, dc, ec, tc, bc and sc is finite."""
    rng = random.Random(seed)
    graph = random_connected_graph(rng, rng.randint(2, 40), rng.uniform(0.0, 0.3))
    triangles = enumerate_triangles(graph)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a triangle-free graph's tc warns
        reports = [
            atec(graph, rng.uniform(0.01, 1.0), triangles=triangles),
            degree_centrality(graph),
            eigenvector_centrality(graph),
            triangle_centrality(graph, triangles),
            betweenness_centrality(graph),
            subgraph_centrality(graph),
        ]
    for report in reports:
        assert np.isfinite(report.scores).all(), report.measure
        assert all(map(math.isfinite, report.ranking.columns[1])), report.measure


def exponents_around(limit: float) -> list[float]:
    """ln values whose exp lands far below, just below, at or past limit."""
    at = math.log(limit)
    while np.exp(at) < limit:
        at = float(np.nextafter(at, np.inf))
    return [at - 1e-9, float(np.nextafter(at, -np.inf)), at, math.log(1.7976931348e308)]


@pytest.mark.parametrize("exponent", exponents_around(1.7976931345e308))
def test_sc_refuses_a_score_whose_text_reads_back_as_inf(monkeypatch, exponent):
    """On one vertex with adjacency [[exponent]], SC is exp(exponent): refused
    exactly when its 10-digit text, as the CLI writes it, reads back as inf."""
    graph = Graph(labels=("a",), edge_array=np.empty((0, 2), dtype=np.int64))
    monkeypatch.setattr(centrality, "adjacency_matrix", lambda g: np.array([[exponent]]))
    score = float(np.exp(exponent))
    if math.isinf(float(f"{score:.10g}")):
        with pytest.raises(ValueError, match=r"not below 1\.7976931345e\+308"):
            subgraph_centrality(graph)
    else:
        assert subgraph_centrality(graph).scores[0] == score


def test_fiedler_size_guard(no_dense_adjacency):
    """A path one vertex over the limit, with one chord closing a triangle, is
    refused by the Fiedler vector and the cycle index before any n x n array
    exists."""
    n = DENSE_SIZE_LIMIT + 1
    graph = Graph.from_edge_labels([*((str(i), str(i + 1)) for i in range(1, n)), ("1", "3")])
    triangles = enumerate_triangles(graph)
    assert len(triangles) == 1
    limit = (
        f"Fiedler vector is dense-eigendecomposition bound; "
        f"n = {n} exceeds the {DENSE_SIZE_LIMIT} limit"
    )
    with pytest.raises(ValueError, match=limit):
        fiedler_vector(graph)
    with pytest.raises(ValueError, match=limit):
        cycle_index_fiedler(graph, triangles)
