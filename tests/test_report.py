import gc
import random
import sys
import threading

import numpy as np
import pytest

from tricent import atec, enumerate_triangles, make_report, triangle_importance
from tricent.report import label_sort_key, rank_scores

from oracles import holme_kim_graph, relabeled


def test_ranking_is_permutation_of_vertices():
    labels = ("a", "b", "c", "d")
    rep = make_report("x", {}, labels, np.array([0.1, 0.4, 0.2, 0.3]), "raw")
    assert sorted(e.label for e in rep.ranking) == sorted(labels)
    assert [e.label for e in rep.ranking] == ["b", "d", "c", "a"]
    assert [e.rank for e in rep.ranking] == [1, 2, 3, 4]


def test_scores_descending_up_to_tie_groups():
    rep = make_report(
        "x", {}, ("a", "b", "c"), np.array([0.5, 0.5 + 1e-12, 0.1]), "raw"
    )
    # the two near-equal scores tie; within the group labels ascend
    assert [e.label for e in rep.ranking] == ["a", "b", "c"]
    assert [e.rank for e in rep.ranking] == [1, 1, 3]
    assert [e.tie_group for e in rep.ranking] == [0, 0, 1]


def test_competition_ranks_skip_after_tie():
    rep = make_report(
        "x", {}, tuple("abcde"), np.array([3.0, 2.0, 2.0, 2.0, 1.0]), "raw"
    )
    assert [e.rank for e in rep.ranking] == [1, 2, 2, 2, 5]


def test_unit_euclidean_norm_invariant(karate):
    rep = atec(karate, 0.5)
    assert rep.normalization == "unit-euclidean"
    assert abs(float(np.sum(rep.scores**2)) - 1.0) < 1e-9


def test_unit_euclidean_conversion():
    rep = make_report("x", {}, ("a", "b"), np.array([3.0, 4.0]), "raw")
    assert (rep.score_of("a"), rep.score_of("b")) == (3.0, 4.0)
    with pytest.raises(KeyError, match="no vertex labeled 'c' in this report"):
        rep.score_of("c")
    unit = rep.unit_euclidean()
    assert np.allclose(unit.scores, [0.6, 0.8])
    assert unit.normalization == "unit-euclidean"
    assert [e.label for e in unit.ranking] == [e.label for e in rep.ranking]


def test_numeric_labels_sort_numerically():
    assert sorted(["10", "2", "1"], key=label_sort_key) == ["1", "2", "10"]
    assert sorted(["b", "a", "3"], key=label_sort_key) == ["3", "a", "b"]


def test_length_mismatch_rejected():
    with pytest.raises(ValueError, match="differ in length"):
        make_report("x", {}, ("a", "b"), np.array([1.0]), "raw")


def test_atec_ranking_survives_relabeling(g14):
    import random

    shuffled, mapping = relabeled(g14, random.Random(4096))
    base = atec(g14, 0.4)
    moved = atec(shuffled, 0.4)
    for entry in base.ranking:
        assert moved.score_of(mapping[entry.label]) == pytest.approx(
            entry.score, abs=1e-9
        )
    base_order = [mapping[e.label] for e in base.ranking]
    moved_ranks = {e.label: e.rank for e in moved.ranking}
    base_ranks = {lab: e.rank for lab, e in zip(base_order, base.ranking)}
    assert all(moved_ranks[lab] == base_ranks[lab] for lab in base_order)


def test_rows_are_named_tuples_with_the_old_fields_and_repr():
    from tricent import RankedTriangle, RankedVertex

    vertex = RankedVertex("a", 0.5, 1, 0)
    assert RankedVertex._fields == ("label", "score", "rank", "tie_group")
    assert repr(vertex) == "RankedVertex(label='a', score=0.5, rank=1, tie_group=0)"
    assert (vertex.label, vertex.score, vertex.rank, vertex.tie_group) == ("a", 0.5, 1, 0)
    assert vertex == ("a", 0.5, 1, 0)
    label, score, rank, group = vertex
    assert (label, score, rank, group) == ("a", 0.5, 1, 0)

    triangle = RankedTriangle(("1", "2", "10"), 0.25, 3)
    assert RankedTriangle._fields == ("vertices", "score", "rank")
    assert repr(triangle) == "RankedTriangle(vertices=('1', '2', '10'), score=0.25, rank=3)"
    assert triangle == (("1", "2", "10"), 0.25, 3)


def test_report_rows_are_built_as_named_tuples(karate):
    from tricent import RankedTriangle, RankedVertex, enumerate_triangles, triangle_importance

    report = atec(karate, 0.2)
    assert all(type(e) is RankedVertex for e in report.ranking)
    assert all(type(e.label) is str and type(e.score) is float for e in report.ranking)
    assert all(type(e.rank) is int and type(e.tie_group) is int for e in report.ranking)
    ranking = triangle_importance(karate, enumerate_triangles(karate), report)
    assert all(type(e) is RankedTriangle and type(e.vertices) is tuple for e in ranking.entries)
    assert all(type(e.score) is float and type(e.rank) is int for e in ranking.entries)


@pytest.mark.parametrize("name", ["karate", "dolphins", "celegans-metabolic", "paper-g14"])
def test_ranking_rows_equal_rows_built_by_make(name):
    """The rows rank_scores and _rank_triangles make when read are instances
    of their NamedTuple, equal to the _make row."""
    from tricent import RankedTriangle, RankedVertex, enumerate_triangles, load_dataset
    from tricent.analysis import TRIANGLE_TIE_TOL, _rank_triangles
    from tricent.report import rank_scores

    graph = load_dataset(name)
    scores = atec(graph, 0.2).scores
    triangles = enumerate_triangles(graph)
    tri = triangles.triangle_array
    sums = scores[tri[:, 0]] + scores[tri[:, 1]] + scores[tri[:, 2]]
    vertex_rows = rank_scores(graph.labels, scores)
    triangle_rows = _rank_triangles("i", {}, graph, triangles, sums, TRIANGLE_TIE_TOL).entries
    assert len(vertex_rows) == graph.n and len(triangle_rows) == len(triangles)
    for rows, cls in ((vertex_rows, RankedVertex), (triangle_rows, RankedTriangle)):
        for row in rows:
            made = cls._make(row)
            assert type(row) is cls and row._fields == cls._fields
            assert tuple(getattr(row, f) for f in cls._fields) == tuple(made)
            assert row == made and repr(row) == repr(made)


def seeded_scores(n: int, seed: int) -> tuple[tuple[str, ...], np.ndarray]:
    """n shuffled labels and scores on a coarse grid, so most rows tie."""
    rng = np.random.default_rng(seed)
    return tuple(f"v{i}" for i in rng.permutation(n)), rng.integers(0, 40, n) / 9.0


def test_rank_scores_from_many_threads_matches_one_thread_and_keeps_the_collector_state():
    """Eight threads (more than the cores) rank at once, with a thread switch
    forced every microsecond. Every ranking must equal the single-thread one,
    and the collector must end as it started, on in one round and off in the
    other: ranking never switches it."""
    labels, scores = seeded_scores(2000, 18)
    expected = rank_scores(labels, scores)
    done = []

    def work():
        done.append(sum(rank_scores(labels, scores) == expected for _ in range(200)))

    was_enabled, interval = gc.isenabled(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for enabled in (True, False):
            gc.enable() if enabled else gc.disable()
            done.clear()
            threads = [threading.Thread(target=work) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            assert done == [200] * 8
            assert gc.isenabled() is enabled
    finally:
        sys.setswitchinterval(interval)
        gc.enable() if was_enabled else gc.disable()


def collections_during(call) -> int:
    """How many garbage collections start while call() runs."""
    starts = []

    def count(phase, info):
        starts.append(phase == "start")

    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
    return sum(starts)


def test_rank_scores_runs_no_collection_per_700_rows():
    """Built with the collector on, 20 000 rows start about 28 collections."""
    labels, scores = seeded_scores(20_000, 19)
    rank_scores(labels, scores)  # sorts the labels once (label_positions keeps them)
    assert collections_during(lambda: rank_scores(labels, scores)) <= 2


def test_triangle_importance_runs_no_collection_per_700_rows():
    """Built with the collector on, a row and its label triple for each of
    these 8 438 triangles start about 21 collections."""
    graph = holme_kim_graph(random.Random(18), 4000)
    triangles = enumerate_triangles(graph)
    assert len(triangles) >= 7000
    scores = np.random.default_rng(18).random(graph.n)
    triangle_importance(graph, triangles, scores)
    assert collections_during(lambda: triangle_importance(graph, triangles, scores)) <= 2


@pytest.fixture(scope="module", params=["vertex", "triangle"])
def views(request):
    """(view, the view built again, a view of other scores) for seeded scores
    on a coarse grid, so most rows tie."""
    if request.param == "vertex":
        labels, scores = seeded_scores(300, 21)

        def build(values):
            return rank_scores(labels, values)

    else:
        graph = holme_kim_graph(random.Random(21), 200)
        triangles = enumerate_triangles(graph)
        _, scores = seeded_scores(graph.n, 21)

        def build(values):
            return triangle_importance(graph, triangles, values).entries

    return build(scores), build(scores.copy()), build(scores[::-1])


def test_view_indexes_like_its_tuple(views):
    view, _, _ = views
    rows = tuple(view)
    assert len(view) == len(rows) > 100
    assert len({row.rank for row in rows}) < len(rows) / 4  # tie-heavy
    for i in range(-len(rows), len(rows)):
        assert view[i] == rows[i] and type(view[i]) is type(rows[i])
    for i in (len(rows), len(rows) + 7, -len(rows) - 1):
        with pytest.raises(IndexError):
            view[i]
    with pytest.raises(ValueError, match="read-only"):
        view.columns[-1][0] = 0


def test_view_slices_like_its_tuple(views):
    view, _, _ = views
    rows = tuple(view)
    n = len(rows)
    for start in (None, 0, 3, -5, n - 1, n, n + 4):
        for stop in (None, 0, 7, -2, n, -n - 3):
            for step in (None, 1, 2, 3, -1, -4):
                part = view[start:stop:step]
                assert type(part) is tuple and part == rows[start:stop:step]
    assert view[5:5] == () and view[n:] == () and view[:0:1] == ()


def test_view_iterates_and_searches_like_its_tuple(views):
    view, _, _ = views
    rows = tuple(view)
    assert list(view) == list(rows)
    assert list(reversed(view)) == list(reversed(rows))
    for row in (*rows[::37], rows[-1]):
        assert row in view
        assert view.index(row) == rows.index(row)
        assert view.count(row) == rows.count(row) == 1
    missing = rows[0]._replace(rank=0)
    assert missing not in view and missing not in rows
    assert view.count(missing) == rows.count(missing) == 0
    with pytest.raises(ValueError):
        view.index(missing)


def test_view_compares_like_its_tuple(views):
    view, again, other = views
    rows, other_rows = tuple(view), tuple(other)
    assert view is not again and view == again and not view != again
    for left, right in ((view, rows), (rows, view), (view, again)):
        assert left == right and not left != right
    assert rows != other_rows
    for left, right in ((view, other), (other, view), (view, other_rows), (other_rows, view)):
        assert left != right and not left == right
    assert (rows == list(rows)) is False
    for left, right in ((view, list(rows)), (list(rows), view)):
        assert left != right and not left == right
    for left, right in ((view, rows[:-1]), (rows[1:], view), (view, ())):
        assert left != right
    with pytest.raises(TypeError):
        hash(view)


def test_empty_views_equal_the_empty_tuple(p3):
    with pytest.warns(UserWarning, match="no triangles"):
        entries = triangle_importance(p3, enumerate_triangles(p3), np.ones(3)).entries
    vertices = rank_scores((), np.empty(0))
    assert len(entries) == len(vertices) == 0 and tuple(entries) == ()
    assert entries == () == vertices and entries == vertices and vertices == entries
    assert entries[:] == () and list(reversed(vertices)) == []
