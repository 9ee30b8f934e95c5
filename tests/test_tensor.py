import math
import random

import numpy as np
import pytest

from tricent import (
    AlphaDomainError,
    ConvergenceError,
    Graph,
    NotConnectedError,
    atec,
    atec_per_component,
    build_operator,
    enumerate_triangles,
    solve_spectral,
)

from oracles import (
    adjacency_of,
    collatz_wielandt_brackets,
    complete_graph,
    contract_tensor,
    materialize_tensor,
    path_graph,
    random_connected_graph,
    record_apply,
    running_intersection,
)


def operator_for(graph, alpha):
    return build_operator(graph, enumerate_triangles(graph), alpha)


class TestBuildAndApply:
    def test_k3_pure_edge(self, k3):
        op = operator_for(k3, 1.0)
        assert np.allclose(op.apply(np.ones(3)), [2.0, 2.0, 2.0])

    def test_k3_blend(self, k3):
        op = operator_for(k3, 0.5)
        assert np.allclose(op.apply(np.ones(3)), [1.5, 1.5, 1.5])

    def test_p3_hand_evaluation(self, p3):
        op = operator_for(p3, 0.7)
        got = op.apply(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(got, [0.7 * 4, 0.7 * (1 + 9), 0.7 * 4])

    def test_triangle_free_reduces_to_edge_term(self, p3):
        x = np.array([0.3, 1.7, 0.9])
        for alpha in (0.2, 0.6, 1.0):
            got = operator_for(p3, alpha).apply(x)
            assert np.allclose(got, alpha * (adjacency_of(p3) @ (x * x)))

    def test_zero_vector_maps_to_zero(self, g14):
        op = operator_for(g14, 0.5)
        assert np.array_equal(op.apply(np.zeros(14)), np.zeros(14))

    def test_homogeneity_is_exact(self, g14):
        rng = np.random.default_rng(5)
        op = operator_for(g14, 0.37)
        x = rng.uniform(0.1, 2.0, size=14)
        assert np.array_equal(op.apply(2.0 * x), 4.0 * op.apply(x))

    def test_dimension_mismatch(self, k3):
        with pytest.raises(ValueError, match="length 3"):
            operator_for(k3, 0.5).apply(np.ones(4))

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.0001, 2.0])
    def test_alpha_domain_rejected(self, k3, alpha):
        with pytest.raises(AlphaDomainError):
            operator_for(k3, alpha)

    def test_operator_builds_on_disconnected_graph_but_solve_rejects_it(self):
        g = Graph.from_edge_labels([("a", "b"), ("c", "d")])
        op = operator_for(g, 0.5)
        assert op.n == 4
        with pytest.raises(NotConnectedError, match="2 components"):
            solve_spectral(op)
        with pytest.raises(NotConnectedError, match="2 components"):
            atec(g, 0.5)


class TestMaterializedOracle:
    def test_k3_pure_edge_entries(self, k3):
        t = materialize_tensor(k3, enumerate_triangles(k3), 1.0)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert t[i, j, j] == 1.0
            assert t[j, i, i] == 1.0
        assert t[0, 1, 2] == 0.0  # triangle weight vanishes at alpha=1

    def test_k3_pure_triangle_entries(self, k3):
        t = materialize_tensor(k3, enumerate_triangles(k3), 0.0)
        for perm in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
            assert t[perm] == 0.5
        assert t[0, 1, 1] == 0.0

    def test_size_guard(self):
        g = path_graph(65)
        with pytest.raises(ValueError, match="refusing"):
            materialize_tensor(g, enumerate_triangles(g), 0.5)

    def test_apply_equals_contraction_exactly_on_g14(self, g14, g14_triangles):
        rng = np.random.default_rng(123)
        op = build_operator(g14, g14_triangles, 0.5)
        dense = materialize_tensor(g14, g14_triangles, 0.5)
        for _ in range(20):
            x = rng.uniform(0.05, 3.0, size=g14.n)
            assert np.array_equal(op.apply(x), contract_tensor(dense, x))


class TestSolveSpectral:
    def test_nonpositive_iterate_raises(self):
        # a triangle with the pendant path c - x - y
        g = Graph.from_edge_labels([("a", "b"), ("b", "c"), ("c", "a"), ("c", "x"), ("x", "y")])
        op = operator_for(g, 0.5)
        # the seed's x entry squared underflows to 0, and x is y's only
        # neighbour, so the first iterate is 0 at y
        with pytest.raises(RuntimeError, match="nonpositive iterate"):
            solve_spectral(op, x0=np.array([1.0, 1.0, 1.0, 1e-200, 1e-200]))

    def test_k3_analytic(self, k3):
        res = solve_spectral(operator_for(k3, 0.5))
        assert res.rho == pytest.approx(1.5, abs=1e-9)
        assert np.allclose(res.x, 1 / math.sqrt(3), atol=1e-9)

    def test_k2_analytic(self):
        g = Graph.from_edge_labels([("1", "2")])
        res = solve_spectral(operator_for(g, 0.7))
        assert res.rho == pytest.approx(0.7, abs=1e-9)
        assert np.allclose(res.x, 1 / math.sqrt(2), atol=1e-9)

    def test_p3_pure_edge(self, p3):
        res = solve_spectral(operator_for(p3, 1.0))
        assert res.rho == pytest.approx(math.sqrt(2), abs=1e-8)
        assert np.allclose(res.x, [0.5412, 0.6436, 0.5412], atol=5e-5)

    def test_bracket_encloses_rho(self, g14):
        res = solve_spectral(operator_for(g14, 0.6))
        lo, hi = res.bracket
        assert lo <= res.rho <= hi
        assert hi - lo < 1e-10

    def test_residual_within_ten_tol(self, g14, karate):
        for g in (g14, karate):
            for alpha in (0.15, 0.6, 1.0):
                res = solve_spectral(operator_for(g, alpha), tol=1e-10)
                assert res.residual < 1e-9

    def test_unit_norm_and_positivity(self, karate):
        res = solve_spectral(operator_for(karate, 0.3))
        assert abs(np.linalg.norm(res.x) - 1.0) < 1e-12
        assert np.all(res.x > 0)

    def test_bracket_monotone(self, g14):
        """Every iterate's bracket encloses rho, and the reported bracket is
        their running intersection, which narrows monotonically."""
        op = operator_for(g14, 0.6)
        calls = record_apply(op)
        res = solve_spectral(op)
        brackets = collatz_wielandt_brackets(calls)
        assert len(brackets) == res.iterations > 2
        for lo, hi in brackets:
            assert lo - 1e-13 <= res.rho <= hi + 1e-13
        history = running_intersection(brackets)
        assert history[-1] == res.bracket
        for (lo0, hi0), (lo1, hi1) in zip(history, history[1:]):
            assert lo0 <= lo1 and hi1 <= hi0

    def test_nonconvergence_raises_with_bracket(self, g14):
        with pytest.raises(ConvergenceError) as err:
            solve_spectral(operator_for(g14, 0.6), max_iter=3)
        lo, hi = err.value.bracket
        assert hi > lo
        assert err.value.iterations == 3

    def test_bad_seed_rejected(self, k3):
        op = operator_for(k3, 0.5)
        with pytest.raises(ValueError, match="positive"):
            solve_spectral(op, x0=np.array([1.0, -1.0, 1.0]))
        with pytest.raises(ValueError, match="length"):
            solve_spectral(op, x0=np.ones(5))

    def test_bad_budget_rejected(self, k3):
        op = operator_for(k3, 0.5)
        with pytest.raises(ValueError, match="max_iter"):
            solve_spectral(op, max_iter=0)
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                solve_spectral(op, tol=tol)

    def test_seed_independence(self):
        rng = random.Random(99)
        nprng = np.random.default_rng(99)
        for _ in range(8):
            g = random_connected_graph(rng, rng.randint(3, 20))
            op = operator_for(g, rng.uniform(0.05, 1.0))
            a = solve_spectral(op, x0=nprng.uniform(0.1, 1.0, size=g.n))
            b = solve_spectral(op, x0=nprng.uniform(0.1, 1.0, size=g.n))
            assert np.max(np.abs(a.x - b.x)) < 1e-8
            assert a.rho == pytest.approx(b.rho, abs=1e-9)

    def test_triangle_free_rho_scales_with_alpha(self):
        rng = random.Random(4242)
        graphs = [path_graph(5), path_graph(3)]
        for _ in range(4):
            graphs.append(random_connected_graph(rng, rng.randint(2, 20), 0.0))
        for g in graphs:
            lam_max = float(np.linalg.eigvalsh(adjacency_of(g)).max())
            baseline = None
            for alpha in (0.1, 0.5, 0.9):
                rep = atec(g, alpha)
                assert rep.meta["rho"] == pytest.approx(alpha * lam_max, abs=1e-8)
                ranking = [(e.label, e.rank) for e in rep.ranking]
                if baseline is None:
                    baseline = ranking
                else:
                    assert ranking == baseline


class TestAtecReport:
    def test_g14_golden_scores(self, g14):
        rep = atec(g14, 0.6)
        expected = {"1": 0.3379, "2": 0.2984, "4": 0.3303, "8": 0.3209, "9": 0.1842}
        for label, value in expected.items():
            assert rep.score_of(label) == pytest.approx(value, abs=5e-4)

    def test_g14_alpha_one_top(self, g14):
        rep = atec(g14, 1.0)
        assert rep.ranking[0].label == "8"
        assert rep.score_of("8") == pytest.approx(0.4306, abs=5e-4)

    def test_karate_small_alpha_top3(self, karate):
        assert atec(karate, 0.01).top(3) == ["1", "2", "3"]

    def test_orbit_tie_groups(self, g14):
        rep = atec(g14, 0.6)
        groups = {e.label: e.tie_group for e in rep.ranking}
        assert groups["1"] == groups["5"]
        assert len({groups[l] for l in ("2", "3", "6", "7")}) == 1
        assert len({groups[l] for l in map(str, range(9, 15))}) == 1

    def test_alpha_equivalence_with_adjacency_perron(self, karate):
        rep = atec(karate, 1.0)
        a = adjacency_of(karate)
        w, v = np.linalg.eigh(a)
        perron = np.abs(v[:, -1])
        xsq = rep.scores**2
        xsq /= np.linalg.norm(xsq)
        assert np.max(np.abs(xsq - perron)) < 1e-8

    def test_per_component_solver(self):
        g = Graph.from_edge_labels(
            [("a", "b"), ("b", "c"), ("a", "c"), ("x", "y")]
        )
        rep = atec_per_component(g, 0.5)
        assert rep.meta["components"] == 2
        assert rep.score_of("a") == pytest.approx(1 / math.sqrt(3), abs=1e-9)
        assert rep.score_of("x") == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_per_component_isolated_vertex(self):
        from tricent import remove_vertices

        g = Graph.from_edge_labels(
            [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("e", "d")]
        )
        stripped = remove_vertices(g, ["c", "d"])  # leaves triangle rump + lone e
        rep = atec_per_component(stripped, 0.5)
        assert rep.meta["components"] == 2
        assert rep.score_of("e") == pytest.approx(1.0, abs=1e-12)
        assert rep.score_of("a") == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_vertex_transitive_graphs_are_uniform(self):
        for g in (complete_graph(5), Graph.from_edge_labels(
            [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]
        )):
            for alpha in (0.3, 1.0):
                rep = atec(g, alpha)
                assert np.ptp(rep.scores) < 1e-10


class TestConcurrentSolves:
    def test_shared_operator_and_parallel_alphas(self, karate):
        from concurrent.futures import ThreadPoolExecutor

        tris = enumerate_triangles(karate)
        alphas = [0.1, 0.35, 0.6, 0.85, 1.0]
        sequential = [
            solve_spectral(build_operator(karate, tris, a)) for a in alphas
        ]
        op_shared = build_operator(karate, tris, 0.5)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(
                pool.map(lambda a: solve_spectral(build_operator(karate, tris, a)), alphas)
            )
            shared = list(pool.map(lambda _: solve_spectral(op_shared), range(4)))
        for seq, par in zip(sequential, parallel):
            assert seq.rho == par.rho
            assert np.array_equal(seq.x, par.x)
        for res in shared[1:]:
            assert np.array_equal(res.x, shared[0].x)
