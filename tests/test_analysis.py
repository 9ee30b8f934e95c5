import itertools
import math
import random
import warnings

import numpy as np
import pytest

import tricent
from tricent import (
    Graph,
    GraphValidationError,
    atec,
    betweenness_centrality,
    cycle_index_fiedler,
    degree_centrality,
    enumerate_triangles,
    fiedler_vector,
    load_dataset,
    make_report,
    rank_correlation,
    removal_experiment,
    triangle_centrality,
    triangle_importance,
)
from tricent import analysis
from tricent import report as report_module
from tricent.analysis import TRIANGLE_TIE_TOL
from tricent.report import label_sort_key

import oracles
from oracles import complete_graph, random_connected_graph, relabeled


class TestTriangleImportance:
    def test_k3_single_triangle(self, k3):
        tris = enumerate_triangles(k3)
        ranking = triangle_importance(k3, tris, atec(k3, 0.5))
        assert len(ranking) == 1
        entry = ranking.entries[0]
        assert entry.vertices == ("1", "2", "3")
        assert entry.score == pytest.approx(3 / math.sqrt(3), abs=1e-9)
        assert entry.rank == 1

    def test_empty_triangle_set_warns(self, p3):
        with pytest.warns(UserWarning, match="no triangles"):
            ranking = triangle_importance(p3, enumerate_triangles(p3), np.ones(3))
        assert len(ranking) == 0

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_scores_rejected(self, g14, g14_triangles, bad):
        """A NaN or infinite vertex score raises naming the index, before a
        ranking could tie its triangle with a finite one or numpy could warn."""
        scores = np.ones(g14.n)
        scores[g14.id_of("1")] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match="index 'triangle-importance' has a NaN or infinite score"
            ):
                triangle_importance(g14, g14_triangles, scores)

    def test_scores_bounded_by_vertex_extremes(self, karate):
        tris = enumerate_triangles(karate)
        rep = atec(karate, 0.4)
        ranking = triangle_importance(karate, tris, rep)
        lo, hi = 3 * rep.scores.min(), 3 * rep.scores.max()
        for e in ranking.entries:
            assert lo - 1e-12 <= e.score <= hi + 1e-12

    @pytest.mark.parametrize(
        "dataset, alpha",
        [("karate", 0.4), *(("celegans", alpha) for alpha in (1, 0.4, 0.2, 0.01))],
    )
    def test_scores_nonincreasing_and_competition_ranks(self, request, dataset, alpha):
        """The TriangleRanking spec: tie groups (entries sharing a rank) chain
        scores within TRIANGLE_TIE_TOL, sit more than it apart, carry
        competition ranks and list their triples in label order. Inside a
        group the printed score may rise by rounding noise."""
        graph = request.getfixturevalue(dataset)
        tris = enumerate_triangles(graph)
        ranking = triangle_importance(graph, tris, atec(graph, alpha))
        groups = [list(g) for _, g in itertools.groupby(ranking.entries, lambda e: e.rank)]
        assert sum(map(len, groups)) == len(tris) > 0
        before = 0
        for group in groups:
            assert group[0].rank == before + 1
            before += len(group)
            scores = sorted((e.score for e in group), reverse=True)
            assert all(a - b <= TRIANGLE_TIE_TOL for a, b in zip(scores, scores[1:]))
            keys = [tuple(map(label_sort_key, e.vertices)) for e in group]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
        for earlier, later in zip(groups, groups[1:]):
            gap = min(e.score for e in earlier) - max(e.score for e in later)
            assert gap > TRIANGLE_TIE_TOL

    def test_tie_group_lists_triples_in_order_whatever_the_last_bits(self):
        # triangles (1, 2, 3) and (1, 2, 4); the second scores 1 ulp higher
        g = Graph.from_edge_labels([("1", "2"), ("1", "3"), ("2", "3"), ("1", "4"), ("2", "4")])
        scores = np.array([0.0, 0.0, 0.1, np.nextafter(0.1, 1.0)])
        ranking = triangle_importance(g, enumerate_triangles(g), scores)
        assert ranking.top(2) == [("1", "2", "3"), ("1", "2", "4")]
        assert ranking.entries[0].score < ranking.entries[1].score
        assert [e.rank for e in ranking.entries] == [1, 1]

    def test_exact_ties_share_rank(self, g14):
        # orbit symmetry makes triangles {1,2,3} and {5,6,7} score equally
        tris = enumerate_triangles(g14)
        ranking = triangle_importance(g14, tris, atec(g14, 0.6), tie_tol=1e-9)
        assert len(ranking) == 2
        assert [e.rank for e in ranking.entries] == [1, 1]

    def test_rankings_survive_a_label_shuffle(self, monkeypatch):
        """paper-g14 rebuilt with its edges shuffled, so its vertices get other
        ids, ranks its triangles the same under both indices; each graph
        sorts its labels once, however many rankings (its atec vertex report
        included) it makes."""
        sorted_labels, cached = [], report_module.label_positions
        cached.cache_clear()

        def counted(labels):
            misses = cached.cache_info().misses
            pos = cached(labels)
            if cached.cache_info().misses > misses:
                sorted_labels.append(labels)
            return pos

        for module in (report_module, analysis):  # every module that ranks by label
            monkeypatch.setattr(module, "label_positions", counted)
        base = load_dataset("paper-g14")
        pairs = [(base.labels[u], base.labels[v]) for u, v in base.edges]
        random.Random(70001).shuffle(pairs)
        shuffled = Graph.from_edge_labels(pairs)
        assert shuffled.labels != base.labels and sorted(shuffled.labels) == sorted(base.labels)
        rankings = {}
        for graph in (base, shuffled):
            tris = enumerate_triangles(graph)
            report = atec(graph, 0.3)
            rankings[graph] = [
                ranking
                for _ in range(2)
                for ranking in (
                    triangle_importance(graph, tris, report),
                    cycle_index_fiedler(graph, tris),
                )
            ]
        assert sorted_labels == [base.labels, shuffled.labels]
        for got, want in zip(rankings[shuffled], rankings[base]):
            assert [(e.vertices, e.rank) for e in got.entries] == [
                (e.vertices, e.rank) for e in want.entries
            ]
            assert [e.score for e in got.entries] == pytest.approx(
                [e.score for e in want.entries], rel=1e-12, abs=1e-15
            )

    def test_permutation_equivariance(self, g14):
        rng = random.Random(60001)
        shuffled, mapping = relabeled(g14, rng)
        base = triangle_importance(g14, enumerate_triangles(g14), atec(g14, 0.3))
        moved = triangle_importance(
            shuffled, enumerate_triangles(shuffled), atec(shuffled, 0.3)
        )
        base_set = {
            tuple(sorted(mapping[v] for v in e.vertices)): (e.score, e.rank)
            for e in base.entries
        }
        for e in moved.entries:
            score, rank = base_set[tuple(sorted(e.vertices))]
            assert e.score == pytest.approx(score, abs=1e-9)
            assert e.rank == rank

    def test_vector_length_checked(self, k3):
        with pytest.raises(ValueError, match="does not match"):
            triangle_importance(k3, enumerate_triangles(k3), np.ones(5))

    def test_tie_groups_order_like_the_loop_ranking(self, celegans, celegans_triangles):
        """Large tie groups (integer degree sums) and the cycle index, ordered
        by the three corner columns of each label-sorted triple, come out as
        the loop ranking's sort of the label triples."""
        degrees = degree_centrality(celegans).scores  # integer sums: large tie groups
        tri = celegans_triangles.triangle_array
        sums = degrees[tri[:, 0]] + degrees[tri[:, 1]] + degrees[tri[:, 2]]
        got = triangle_importance(celegans, celegans_triangles, degrees)
        assert len({e.rank for e in got.entries}) < len(got) / 5
        want = oracles.rank_triangles(
            "triangle-importance", {}, celegans, celegans_triangles, sums, TRIANGLE_TIE_TOL
        )
        assert got.entries == want.entries
        got = cycle_index_fiedler(celegans, celegans_triangles)
        x = fiedler_vector(celegans)
        p, q, r = x[tri[:, 0]], x[tri[:, 1]], x[tri[:, 2]]
        cycle = (p - q) ** 2 + (p - r) ** 2 + (q - r) ** 2
        want = oracles.rank_triangles(
            "cycle-index", {}, celegans, celegans_triangles, cycle, TRIANGLE_TIE_TOL
        )
        assert got.entries == want.entries


class TestCycleIndexFiedler:
    def test_k3_nonnegative(self, k3):
        ranking = cycle_index_fiedler(k3, enumerate_triangles(k3))
        assert len(ranking) == 1
        assert ranking.entries[0].score >= 0

    def test_zero_iff_fiedler_constant_on_triangle(self):
        # K3 on {1,2,3} plus two nonadjacent apexes 4, 5 joined to all of 1,2,3:
        # lambda_2 = 3 is simple with eigenvector (0,0,0,1,-1)/sqrt(2), so the
        # core triangle scores exactly zero and every apex triangle does not.
        pairs = [("1", "2"), ("1", "3"), ("2", "3")]
        pairs += [(a, b) for a in ("1", "2", "3") for b in ("4", "5")]
        g = Graph.from_edge_labels(pairs)
        v = fiedler_vector(g)
        core = [g.id_of("1"), g.id_of("2"), g.id_of("3")]
        assert np.ptp(v[core]) < 1e-12  # constant on the core triangle
        ranking = cycle_index_fiedler(g, enumerate_triangles(g))
        assert ranking.score_of(("1", "2", "3")) < 1e-24
        assert ranking.score_of(("1", "2", "4")) > 0.1
        assert ranking.rank_of(("1", "2", "3")) == len(ranking)

    def test_celegans_golden_values(self, celegans, celegans_triangles):
        ranking = cycle_index_fiedler(celegans, celegans_triangles)
        assert ranking.top(1) == [("56", "153", "217")]
        assert ranking.score_of(("56", "153", "217")) == pytest.approx(0.1536, abs=5e-5)
        for tri in (("56", "123", "274"), ("56", "274", "433"), ("56", "123", "433")):
            assert ranking.score_of(tri) == pytest.approx(0.0506, abs=5e-5)
            assert ranking.rank_of(tri) == 2
        assert ranking.entries[4].rank == 5
        assert ranking.score_of(("149", "154", "352")) == pytest.approx(0.0040, abs=5e-5)
        # lookups take the corners in any order; unknown triples name the sorted triple
        assert ranking.rank_of(("433", "56", "123")) == 2
        assert ranking.score_of(("217", "153", "56")) == ranking.entries[0].score
        with pytest.raises(KeyError, match=r"triangle \('1', '56', '153'\) not in ranking"):
            ranking.score_of(("153", "56", "1"))
        with pytest.raises(KeyError, match=r"triangle \('1', '56', '153'\) not in ranking"):
            ranking.rank_of(("153", "1", "56"))

    def test_empty_warns(self, p3):
        with pytest.warns(UserWarning, match="no triangles"):
            ranking = cycle_index_fiedler(p3, enumerate_triangles(p3))
        assert len(ranking) == 0


class TestRemovalExperiment:
    def test_k4_minus_triangle_single_vertex(self):
        result = removal_experiment(complete_graph(4), ["1", "2", "3"])
        assert result.components_before == 1
        assert result.components_after == 1
        assert result.sizes_after == (1,)

    def test_celegans_cycle_triangle(self, celegans):
        result = removal_experiment(celegans, ["56", "153", "217"])
        assert result.components_before == 1
        assert result.components_after == 3
        assert result.summary == "components: 1 -> 3"

    def test_bookkeeping(self, celegans):
        result = removal_experiment(celegans, ["147", "186", "408"])
        assert sum(result.sizes_after) == celegans.n - 3
        assert result.components_after >= 1

    def test_unknown_vertex(self, k3):
        with pytest.raises(GraphValidationError, match="unknown"):
            removal_experiment(k3, ["nope"])


class TestRankCorrelation:
    def test_self_correlation_is_one(self, karate):
        rep = atec(karate, 0.6)
        for method in ("pearson", "spearman", "kendall"):
            assert rank_correlation(rep, rep, method) == 1.0

    def test_reversed_ranking_is_minus_one(self):
        a = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert rank_correlation(a, a[::-1].copy(), "spearman") == -1.0
        assert rank_correlation(a, a[::-1].copy(), "kendall") == -1.0

    def test_karate_alpha_one_matches_ec(self, karate):
        from tricent import eigenvector_centrality

        rho = rank_correlation(atec(karate, 1.0), eigenvector_centrality(karate), "spearman")
        assert rho == 1.0

    def test_constant_vector_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            rank_correlation(np.ones(5), np.arange(5.0))

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            rank_correlation(np.arange(4.0), np.arange(4.0), "cosine")

    def test_alignment_by_label(self, k3):
        from tricent import degree_centrality, make_report

        a = degree_centrality(k3)
        b = make_report("fake", {}, ("3", "1", "2"), np.array([3.0, 1.0, 2.0]), "raw")
        # after alignment both vectors are constant-free and identically ordered
        got = rank_correlation(
            make_report("x", {}, ("1", "2", "3"), np.array([1.0, 2.0, 3.0]), "raw"),
            b,
            "spearman",
        )
        assert got == 1.0
        with pytest.raises(ValueError, match="different vertex sets"):
            rank_correlation(
                a,
                make_report("y", {}, ("1", "2"), np.array([1.0, 2.0]), "raw"),
            )

    @pytest.mark.parametrize("method", ("pearson", "spearman", "kendall"))
    def test_shared_labels_match_the_aligned_path(self, karate, method):
        """Reports of one graph skip the alignment by label; each b under
        shuffled labels goes through it and gives bitwise the same value."""
        rng = random.Random(1601)
        triangles = enumerate_triangles(karate)
        reports = [
            atec(karate, 0.2),
            degree_centrality(karate),
            triangle_centrality(karate, triangles),
            betweenness_centrality(karate),
        ]
        for a, b in itertools.combinations(reports, 2):
            order = list(range(karate.n))
            rng.shuffle(order)
            moved = make_report(b.measure, {}, [b.labels[i] for i in order], b.scores[order], "raw")
            assert moved.labels != a.labels
            got, want = rank_correlation(a, b, method), rank_correlation(a, moved, method)
            assert got.hex() == want.hex()

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            rank_correlation(np.arange(4.0), np.arange(5.0))

    @pytest.mark.parametrize("method", ("pearson", "spearman", "kendall"))
    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_non_finite_scores_rejected(self, method, bad):
        scores = np.array([1.0, bad, 3.0, 2.0])
        for a, b in ((scores, np.arange(4.0)), (np.arange(4.0), scores)):
            with pytest.raises(ValueError, match="NaN or infinite"):
                rank_correlation(a, b, method)

    @pytest.mark.parametrize("tie_tol", (math.nan, -1e-9))
    def test_bad_tie_tol_rejected(self, tie_tol):
        with pytest.raises(ValueError, match="tie_tol must be nonnegative"):
            rank_correlation(np.arange(4.0), np.arange(4.0), "kendall", tie_tol=tie_tol)


class TestTieRanking:
    def test_ties_within_tolerance_share_rank(self, k3):
        tris_graph = Graph.from_edge_labels(
            [("1", "2"), ("2", "3"), ("1", "3"), ("3", "4"), ("4", "5"), ("3", "5")]
        )
        tris = enumerate_triangles(tris_graph)
        scores = np.array([0.5, 0.5, 0.5, 0.5, 0.5])
        ranking = triangle_importance(tris_graph, tris, scores)
        assert [e.rank for e in ranking.entries] == [1, 1]

    def test_distinct_scores_skip_ranks(self):
        g = Graph.from_edge_labels(
            [("1", "2"), ("2", "3"), ("1", "3"), ("3", "4"), ("4", "5"), ("3", "5")]
        )
        tris = enumerate_triangles(g)
        scores = np.array([1.0, 1.0, 1.0, 0.1, 0.1])
        ranking = triangle_importance(g, tris, scores)
        ranks = {tuple(e.vertices): e.rank for e in ranking.entries}
        assert ranks[("1", "2", "3")] == 1
        assert ranks[("3", "4", "5")] == 2

    def test_random_graph_equal_scores_tie(self):
        rng = random.Random(12321)
        g = random_connected_graph(rng, 12, 0.5)
        tris = enumerate_triangles(g)
        if len(tris) >= 2:
            ranking = triangle_importance(g, tris, np.full(g.n, 0.25))
            assert len({e.rank for e in ranking.entries}) == 1
