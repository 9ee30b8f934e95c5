import dataclasses
import gc
import math
import random
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from tricent import (
    CentralityReport,
    RankedVertex,
    atec,
    enumerate_triangles,
    make_report,
    triangle_importance,
)
from tricent.analysis import TRIANGLE_TIE_TOL
from tricent.report import label_positions, label_sort_key

import oracles
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


def test_a_report_ranks_its_scores_on_first_read_and_keeps_the_ranking():
    """No ranking is given to a report, so none can disagree with its scores:
    the first read ranks them at VERTEX_TIE_TOL, for the unit report too."""
    names = [f.name for f in dataclasses.fields(CentralityReport)]
    assert names == ["measure", "params", "labels", "scores", "normalization", "meta"]
    rep = make_report("x", {}, ("a", "b", "c"), [3.0, 3.0 + 1e-6, 1.0], "raw")
    assert "ranking" not in vars(rep)
    ranking = rep.ranking
    assert rep.ranking is ranking is vars(rep)["ranking"]
    assert [e.rank for e in ranking] == [1, 2, 3] == [e.rank for e in rep.unit_euclidean().ranking]


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


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_non_finite_scores_rejected(bad):
    """A NaN or infinite score raises, naming the measure, before a ranking
    could tie it with a finite one or numpy could warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="measure 'x' has a NaN or infinite score"):
            make_report("x", {}, ("a", "b", "c", "d"), [1, bad, 2, 0.5], "raw")


@pytest.mark.parametrize("sign", (1.0, -1.0))
def test_scores_that_print_as_inf_rejected(sign):
    """1.7976931345e308 is the smallest float whose 10-digit text reads back
    as inf; it is refused by name, and the float printed 1.797693134e308
    below it is kept."""
    message = r"measure 'x' has a score of magnitude 1\.7976931345e\+308 or more"
    with pytest.raises(ValueError, match=message):
        make_report("x", {}, ("a", "b"), [sign * 1.7976931345e308, 1.0], "raw")
    kept = make_report("x", {}, ("a", "b"), [sign * 1.797693134e308, 1.0], "raw")
    assert float(f"{kept.score_of('a'):.10g}") == kept.score_of("a") == sign * 1.797693134e308


def test_unit_euclidean_of_a_unit_report_is_that_report():
    rep = make_report("x", {}, ("a", "b"), np.array([0.6, 0.8]), "unit-euclidean")
    assert rep.unit_euclidean() is rep


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
    """The rows a report's ranking and _rank_triangles make when read are
    instances of their NamedTuple, equal to the _make row."""
    from tricent import RankedTriangle, RankedVertex, enumerate_triangles, load_dataset
    from tricent.analysis import TRIANGLE_TIE_TOL, _rank_triangles

    graph = load_dataset(name)
    scores = atec(graph, 0.2).scores
    triangles = enumerate_triangles(graph)
    tri = triangles.triangle_array
    sums = scores[tri[:, 0]] + scores[tri[:, 1]] + scores[tri[:, 2]]
    vertex_rows = ranking_of(graph.labels, scores)
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


def ranking_of(labels, scores):
    """The ranking of a report of scores over labels, made by its first read."""
    return make_report("x", {}, labels, scores, "raw").ranking


def test_rank_scores_from_many_threads_matches_one_thread_and_keeps_the_collector_state():
    """Eight threads (more than the cores) rank at once, with a thread switch
    forced every microsecond. Every ranking must equal the single-thread one,
    and the collector must end as it started, on in one round and off in the
    other: ranking never switches it."""
    labels, scores = seeded_scores(2000, 18)
    expected = ranking_of(labels, scores)
    done = []

    def work():
        done.append(sum(ranking_of(labels, scores) == expected for _ in range(200)))

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
    ranking_of(labels, scores)  # sorts the labels once (label_positions keeps them)
    assert collections_during(lambda: ranking_of(labels, scores)) <= 2


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
            return ranking_of(labels, values)

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
    vertices = ranking_of((), np.empty(0))
    assert len(entries) == len(vertices) == 0 and tuple(entries) == ()
    assert entries == () == vertices and entries == vertices and vertices == entries
    assert entries[:] == () and list(reversed(vertices)) == []
    for view in (entries, vertices):
        with pytest.raises(ValueError):
            view.index(RankedVertex("a", 1.0, 1, 0))


@pytest.fixture(
    scope="module",
    params=[("vertex", 0), ("vertex", 1), ("vertex", 2), ("vertex", 300), ("vertex", 2000),
            ("triangle", 150), ("triangle", 400)],
    ids=lambda p: f"{p[0]}{p[1]}",
)
def oracle_views(request):
    """(view, the loop oracle's rows, a view of equal rows over other label
    and triangle objects, a view of the scores plus 1: the same order and
    tie groups, other scores) for seeded scores on a coarse grid, so most
    rows tie. Triangles rank the score sums of seeded Holme-Kim graphs whose
    shuffled labels sort in another order than their vertex ids."""
    kind, n = request.param
    if kind == "vertex":
        labels, scores = seeded_scores(n, 26 + n)
        copy = tuple(label[:1] + label[1:] for label in labels)  # equal, not the same objects
        assert n < 2 or copy[0] is not labels[0]
        return (
            ranking_of(labels, scores),
            oracles.rank_scores(labels, scores),
            ranking_of(copy, scores.copy()),
            ranking_of(labels, scores + 1.0),
        )
    graph, _ = relabeled(holme_kim_graph(random.Random(26 + n), n), random.Random(n))
    triangles = enumerate_triangles(graph)
    _, scores = seeded_scores(graph.n, 26 + n)
    tri = triangles.triangle_array
    sums = scores[tri[:, 0]] + scores[tri[:, 1]] + scores[tri[:, 2]]
    twin, _ = relabeled(holme_kim_graph(random.Random(26 + n), n), random.Random(n))
    assert twin.labels == graph.labels and twin.labels is not graph.labels
    return (
        triangle_importance(graph, triangles, scores).entries,
        oracles.rank_triangles("i", {}, graph, triangles, sums, TRIANGLE_TIE_TOL).entries,
        triangle_importance(twin, enumerate_triangles(twin), scores).entries,
        triangle_importance(graph, triangles, scores + 1.0).entries,
    )


def test_view_columns_equal_the_oracle_columns(oracle_views):
    """Same values, dtypes and order as the loop oracle's columns, each
    read-only, and gathered afresh at every read rather than kept."""
    view, rows, _, _ = oracle_views
    want = oracles.columns_of(rows, type(rows[0]) if rows else RankedVertex)
    got = view.columns
    assert len(got) == len(want)
    for column, expected in zip(got, want):
        assert column.dtype == expected.dtype and column.shape == expected.shape
        assert np.array_equal(column, expected)
        assert not column.flags.writeable
    assert all(a is not b for a, b in zip(got, view.columns))
    assert not hasattr(view, "__dict__")


def test_view_rows_equal_the_oracle_rows(oracle_views):
    view, rows, _, _ = oracle_views
    n = len(rows)
    assert len(view) == n
    for i in range(-n, n):
        assert view[i] == rows[i] and type(view[i]) is type(rows[i])
    for i in (n, n + 7, -n - 1):
        with pytest.raises(IndexError):
            view[i]
    for start in (None, 0, 1, 3, -5, n - 1, n, n + 4):
        for stop in (None, 0, 7, -2, n, -n - 3):
            for step in (None, 1, 2, 3, -1, -4):
                part = view[start:stop:step]
                assert type(part) is tuple and part == rows[start:stop:step]
                assert all(type(row) is type(want) for row, want in zip(part, rows))


def test_view_iterates_searches_and_compares_like_the_oracle(oracle_views):
    view, rows, twin, shifted = oracle_views
    assert list(view) == list(rows) and tuple(reversed(view)) == rows[::-1]
    for row in (*rows[::37], *rows[-1:]):
        assert row in view
    for row in rows[:1]:
        assert row._replace(score=-1.0) not in view
    for left, right in ((view, rows), (rows, view), (view, twin), (twin, view), (twin, rows)):
        assert left == right and not left != right
    if rows:
        changed = rows[:-1] + (rows[-1]._replace(rank=0),)
        assert [row.rank for row in shifted] == [row.rank for row in rows]
        for other in (rows[:-1], rows + rows[:1], changed, list(rows), shifted):
            for left, right in ((view, other), (other, view), (twin, other)):
                assert left != right and not left == right
    assert (view != rows[::-1]) is (len(rows) > 1)


def test_reversed_and_index_gather_once_like_the_tuple(oracle_views, monkeypatch):
    """reversed() and index(), start and stop included, give what they give
    on the tuple of rows, each from one gather rather than one per row."""
    view, rows, _, _ = oracle_views
    n = len(rows)
    gather, calls = type(view)._gather, []
    monkeypatch.setattr(type(view), "_gather", lambda self, at: calls.append(at) or gather(self, at))

    def once(call):
        calls.clear()
        try:
            result = call()
        except ValueError:
            result = ValueError
        assert len(calls) == 1
        return result

    def on_rows(call):
        try:
            return call()
        except ValueError:
            return ValueError

    assert once(lambda: list(reversed(view))) == list(reversed(rows))
    probes = (*rows[::53], *rows[-1:], RankedVertex("absent", 0.5, 1, 0))
    for row in probes:
        assert once(lambda: view.index(row)) == on_rows(lambda: rows.index(row))
        i = rows.index(row) if row in rows else n // 2
        for start, stop in ((0, n), (i, i + 1), (i + 1, n + 5), (i - n, n), (-n - 9, i),
                            (0, i - n + 1), (n + 2, n + 9), (i + 1, i)):
            got = once(lambda: view.index(row, start, stop))
            assert got == on_rows(lambda: rows.index(row, start, stop))
        assert once(lambda: view.index(row, i - n, None)) == on_rows(lambda: rows.index(row, i - n))


def traced(call):
    """(result, bytes call leaves allocated, peak bytes while it runs), traced
    from a collection, so that only what call makes and keeps counts."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


KIB = 1024


def test_a_report_keeps_two_index_arrays_and_reads_rows_in_o_k():
    """A ranking keeps order and starts, 8n bytes each at most (starts holds
    one entry per tie group, and here every score is its own group), and
    reads the scores and labels the report is given; 64 KiB covers the
    report, its dicts and the array headers. Label, score, rank and
    tie-group columns kept in rank order took 4 x 8n. A read of k rows must
    make no temporary of length n (8n = 400 KB here), so 64 KiB bounds its
    peak. The label order is the graph's, kept once for all its rankings, so
    it is made before tracing."""
    n = 50_000
    labels = tuple(f"v{i}" for i in range(n))
    scores = np.random.default_rng(50).permutation(n) / n
    label_positions(labels)

    def ranked():
        report = make_report("x", {}, labels, scores, "raw")
        report.ranking  # made on first read, and kept
        return report

    report, kept, _ = traced(ranked)
    assert len(report.ranking.starts) == n
    assert kept <= 2 * 8 * n + 64 * KIB
    reads = (lambda: report.ranking[:10], lambda: report.ranking[-1], lambda: report.top(10))
    for read in reads:
        assert traced(read)[2] < 64 * KIB
    assert report.top(10) == [row.label for row in report.ranking[:10]]


def test_a_triangle_ranking_keeps_three_arrays_and_reads_rows_in_o_k():
    """A triangle ranking keeps its unsorted sums, order and starts, 8T
    bytes each at most, and reads the TriangleSet's triangle_array and the
    graph's labels; 64 KiB covers the objects around them. Three label
    columns, score and rank kept in rank order took 5 x 8T. A read of k rows
    must make no temporary of length T (8T = 132 KB here)."""
    graph = holme_kim_graph(random.Random(27), 8000)
    triangles = enumerate_triangles(graph)
    t = len(triangles)
    assert t > 16_000
    scores = np.random.default_rng(27).random(graph.n)
    label_positions(graph.labels)
    ranking, kept, _ = traced(lambda: triangle_importance(graph, triangles, scores))
    assert kept <= 3 * 8 * t + 64 * KIB
    reads = (lambda: ranking.entries[:10], lambda: ranking.entries[-1], lambda: ranking.top(10))
    for read in reads:
        assert traced(read)[2] < 64 * KIB
    assert ranking.top(10) == [row.vertices for row in ranking.entries[:10]]


def test_top_refuses_a_negative_k_and_reads_k_rows(karate):
    """top(-1) gave all but the last row before it was refused."""
    report = atec(karate, 0.5)
    ranking = triangle_importance(karate, enumerate_triangles(karate), report)
    for top in (report.top, ranking.top):
        for k in (-1, -34):
            with pytest.raises(ValueError, match=f"got {k}"):
                top(k)
        assert top(0) == []
    assert report.top(3) == [row.label for row in report.ranking[:3]]
    assert report.top(100) == [row.label for row in report.ranking]
    assert ranking.top(3) == [row.vertices for row in ranking.entries[:3]]
    assert ranking.top(1000) == [row.vertices for row in ranking.entries]
