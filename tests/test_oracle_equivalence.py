"""Library paths against the loop oracles they replaced.

Each library path must reproduce its loop-based reference exactly: the same
triangle listings, the same operator index arrays, bitwise-equal
coefficients, equal ranking tuples, equal correlation floats, the same graphs
from the one array builder (errors and warnings included), bitwise-equal
results from the shared power kernel at Anderson depth 0 (iterate by
iterate), bitwise-equal adjacency matrices, betweenness and
triangle-centrality scores, and equal neighbour-triangle sums. The kernel's
Anderson-mixed default is held to a tighter power-loop reference within
stated tolerances instead.
Graphs are seeded random graphs (triangle-free and single-edge ones included)
over labels chosen to trip numeric label ordering: "01", "1" and "+1" all
parse as the integer 1, "1_0" parses as 10.
"""

import io
import math
import random
import types
import warnings
from fractions import Fraction

import numpy as np
import pytest

from tricent import (
    AlphaTriangleOperator,
    ConvergenceError,
    Graph,
    NotConnectedError,
    adjacency_matrix,
    atec,
    atec_per_component,
    betweenness_centrality,
    connected_components,
    dataset_names,
    degree_and_triangle_stats,
    degree_centrality,
    eigenvector_centrality,
    enumerate_triangles,
    fiedler_vector,
    is_connected,
    laplacian_matrix,
    load_dataset,
    load_edge_list,
    make_report,
    rank_correlation,
    remove_vertices,
    solve_spectral,
    triangle_centrality,
    triangle_importance,
)
from tricent import analysis, centrality, graph as graph_module, tensor
from tricent.analysis import TRIANGLE_TIE_TOL, _rank_triangles
from tricent.graph import _induced, _list_triangles
from tricent.report import VERTEX_TIE_TOL
from tricent.tensor import MAX_VERTICES

import cli_grid
import oracles
from oracles import (
    OracleGraph,
    adjacency_of,
    adjacency_product_by_loop,
    apply_by_add_at,
    average_ranks,
    betweenness_by_loop,
    collatz_wielandt_brackets,
    contract_tensor,
    diamond_chain,
    digraph_strongly_connected,
    eigenvector_centrality_by_loop,
    graph_from_edge_labels,
    holme_kim_graph,
    induced,
    kendall_tau_b,
    layout_arrays,
    materialize_tensor,
    neighbor_triangles_by_loop,
    operator_arrays_by_loops,
    operator_arrays_from_layout,
    pearson_of_ranks,
    random_connected_graph,
    rank_scores,
    rank_triangles,
    record_apply,
    running_intersection,
    solve_spectral_by_loop,
    star_graph,
    triangle_centrality_by_loop,
    triangles_by_forward_loop,
    wheel_graph,
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


def kernel_graphs() -> list[Graph]:
    rng = random.Random(31)
    graphs = [load_dataset(name) for name in dataset_names()]
    graphs += [oracles.random_tree(rng, n) for n in (2, 3, 9, 30)]  # bipartite
    graphs += [random_connected_graph(rng, n, p) for n, p in ((5, 0.5), (20, 0.2), (40, 0.1))]
    return graphs


KERNEL_GRAPHS = kernel_graphs()


def test_sample_covers_triangle_free_and_triangle_rich_graphs():
    counts = [len(enumerate_triangles(g)) for g in GRAPHS]
    assert GRAPHS[0].m == 1
    assert counts.count(0) >= 2
    assert max(counts) >= 50


def assert_layout_matches_loop_build(op, graph, triangles):
    """The entries read back from op's layout, in the order apply() adds them,
    and each entry's selected coefficient equal the loop build bitwise."""
    got = operator_arrays_from_layout(op)
    want = operator_arrays_by_loops(graph, triangles, op.alpha)
    for got_arr, want_arr in zip(got, want):
        assert got_arr.dtype == want_arr.dtype
        assert got_arr.tobytes() == want_arr.tobytes()


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_operator_build_matches_loop_build(graph):
    triangles = enumerate_triangles(graph)
    for alpha in ALPHAS:
        assert_layout_matches_loop_build(
            AlphaTriangleOperator(graph, triangles, alpha), graph, triangles
        )


def test_operator_build_matches_loop_build_on_celegans(celegans, celegans_triangles):
    op = AlphaTriangleOperator(celegans, celegans_triangles, 0.2)
    assert_layout_matches_loop_build(op, celegans, celegans_triangles)


@pytest.mark.parametrize("block", (1, 5, 64))
def test_apply_blocks_are_exact(monkeypatch, block):
    """Tiny apply() blocks split rows across blocks; sums stay bitwise equal."""
    monkeypatch.setattr(tensor, "_APPLY_BLOCK", block)
    rng = random.Random(block)
    nprng = np.random.default_rng(block)
    for _ in range(10):
        graph = random_connected_graph(rng, rng.randint(2, 12), 0.4)
        triangles = enumerate_triangles(graph)
        alpha = rng.uniform(0.02, 1.0)
        op = AlphaTriangleOperator(graph, triangles, alpha)
        dense = materialize_tensor(graph, triangles, alpha)
        arrays = operator_arrays_by_loops(graph, triangles, alpha)
        x = nprng.uniform(0.05, 2.0, size=graph.n)
        assert op.apply(x).tobytes() == contract_tensor(dense, x).tobytes()
        assert op.apply(x).tobytes() == apply_by_add_at(arrays, x, len(arrays[0])).tobytes()


def test_apply_matches_one_pass_on_celegans(celegans, celegans_triangles):
    nprng = np.random.default_rng(5)
    for alpha in (1.0, 0.2, 0.01):
        op = AlphaTriangleOperator(celegans, celegans_triangles, alpha)
        arrays = operator_arrays_by_loops(celegans, celegans_triangles, alpha)
        assert len(arrays[0]) > 2 * tensor._APPLY_BLOCK
        for _ in range(5):
            x = nprng.uniform(0.05, 2.0, size=celegans.n)
            assert op.apply(x).tobytes() == apply_by_add_at(arrays, x, len(arrays[0])).tobytes()


# below this many vertices the slice test also holds apply() to the dense contraction
DENSE_CHECK_VERTICES = 40


@pytest.mark.parametrize("graph", GRAPHS + KERNEL_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_sliced_apply_is_exact(monkeypatch, graph):
    """apply() through slices of any depth and blocks of any size is bitwise
    equal to the dense contraction and to the blocked np.add.at kernel it
    replaced: a threshold of 1 puts every entry in a slice, 3 splits rows
    between slices and np.add.at, and a huge one leaves only np.add.at."""
    triangles = _list_triangles(graph)  # a layout of its own, built under each patch
    nprng = np.random.default_rng(graph.n * 1000 + graph.m)
    cases = []
    for alpha in (0.8, 0.01):
        arrays = operator_arrays_by_loops(graph, triangles, alpha)
        x = nprng.uniform(0.05, 2.0, size=graph.n)
        want = apply_by_add_at(arrays, x, 8192).tobytes()
        if graph.n <= DENSE_CHECK_VERTICES:
            assert contract_tensor(materialize_tensor(graph, triangles, alpha), x).tobytes() == want
        cases.append((alpha, x, want))
    for threshold in (1, 3, 2**62):
        monkeypatch.setattr(tensor, "_SLICE_MIN_ROWS", threshold)
        for block in (1, 5, 64, 8192):
            monkeypatch.setattr(tensor, "_APPLY_BLOCK", block)
            for alpha, x, want in cases:
                op = AlphaTriangleOperator(graph, triangles, alpha)
                if threshold == 1:
                    assert op._layout.tail == ()
                elif threshold > graph.n:
                    assert op._layout.slices == ()
                assert op.apply(x).tobytes() == want
                assert all(len(arr) <= block for arr in layout_arrays(op._layout)[1:])
            assert_layout_matches_loop_build(op, graph, triangles)


def test_default_threshold_slices_a_large_graph():
    """On a graph with enough vertices the slice path engages by itself; the
    operators of its sweep share one read-only layout, and each one's
    apply() is bitwise equal to the blocked np.add.at kernel."""
    graph = holme_kim_graph(random.Random(1500), 1600)
    triangles = enumerate_triangles(graph)
    nprng = np.random.default_rng(1500)
    ops = [AlphaTriangleOperator(graph, triangles, alpha) for alpha in (1.0, 0.2, 0.01)]
    layout = vars(graph)["_operator_layout"]
    assert all(op._layout is layout for op in ops)
    assert len(layout.slices) > 0 and len(layout.tail) > 0
    for arr in layout_arrays(layout):
        assert not arr.flags.writeable
    for op in ops:
        assert_layout_matches_loop_build(op, graph, triangles)
        arrays = operator_arrays_by_loops(graph, triangles, op.alpha)
        for _ in range(2):
            x = nprng.uniform(0.05, 2.0, size=graph.n)
            assert op.apply(x).tobytes() == apply_by_add_at(arrays, x, 8192).tobytes()


def test_operators_of_a_sweep_share_one_read_only_pattern():
    """Operators on a graph's own listing share its alpha-free layout; an
    operator holds nothing per alpha but alpha itself."""
    graph = load_dataset("karate")  # a fresh Graph: nothing cached yet
    triangles = enumerate_triangles(graph)
    ops = [AlphaTriangleOperator(graph, triangles, alpha) for alpha in ALPHAS]
    layout = vars(graph)["_operator_layout"]
    assert all(op._layout is layout for op in ops)
    assert isinstance(layout.slices, tuple) and isinstance(layout.tail, tuple)
    for arr in layout_arrays(layout):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[-1]
    for op in ops:
        assert set(vars(op)) == {"alpha", "graph", "triangles", "n", "_layout"}
        assert_layout_matches_loop_build(op, graph, triangles)


@pytest.mark.parametrize("seed", range(6))
def test_shared_pattern_apply_matches_dense_and_a_separate_listing(seed):
    """apply() through the graph's shared layout is bitwise equal to the dense
    contraction and to an operator on a separately listed TriangleSet, which
    builds its own layout without listing the graph's triangles."""
    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    graph = random_connected_graph(rng, rng.randint(3, 14), 0.5)
    separate = _list_triangles(graph)
    owns = [AlphaTriangleOperator(graph, separate, alpha) for alpha in ALPHAS]
    assert "_triangles" not in vars(graph) and "_operator_layout" not in vars(graph)
    for own, alpha in zip(owns, ALPHAS):
        shared = AlphaTriangleOperator(graph, enumerate_triangles(graph), alpha)
        assert shared._layout is vars(graph)["_operator_layout"]
        assert own._layout is not shared._layout
        assert not any(arr.flags.writeable for arr in layout_arrays(own._layout))
        dense = materialize_tensor(graph, separate, alpha)
        for _ in range(3):
            x = nprng.uniform(0.05, 2.0, size=graph.n)
            got = shared.apply(x).tobytes()
            assert got == contract_tensor(dense, x).tobytes()
            assert got == own.apply(x).tobytes()


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


MIXED_LABELS = ["10", "9", "a", "01", "+1", "B", "1_0", "-3", "é", "2", "x", "100"]


def relabel_mixed(graph: Graph, seed: int) -> Graph:
    """graph under a seeded renaming onto MIXED_LABELS (at most 12 vertices)."""
    names = MIXED_LABELS[: graph.n]
    random.Random(seed).shuffle(names)
    return Graph.from_edge_labels([(names[u], names[v]) for u, v in graph.edges])


def complete_bipartite(m: int, n: int) -> Graph:
    return Graph.from_edge_labels([(f"u{i}", f"v{j}") for i in range(m) for j in range(n)])


TIE_HEAVY = [
    relabel_mixed(oracles.star_graph(9), 1),
    relabel_mixed(complete_bipartite(3, 4), 2),
    relabel_mixed(complete_bipartite(2, 7), 3),
    relabel_mixed(oracles.cycle_graph(12), 4),
    relabel_mixed(oracles.complete_graph(6), 5),
    relabel_mixed(diamond_chain(3), 6),
    complete_bipartite(4, 5),
]


@pytest.mark.parametrize("graph", TIE_HEAVY, ids=lambda g: f"n{g.n}m{g.m}")
def test_tie_heavy_rankings_match_loop_ranking(graph):
    """Whole tie groups order by label, numeric and non-numeric mixed."""
    reports = [degree_centrality(graph), eigenvector_centrality(graph)]
    reports += [atec(graph, alpha) for alpha in (1.0, 0.5, 0.01)]
    for report in reports:
        assert report.ranking == rank_scores(graph.labels, report.scores, VERTEX_TIE_TOL)
        assert len({e.tie_group for e in report.ranking}) < graph.n  # a group of two or more


@pytest.mark.parametrize(
    "graph", [g for g in GRAPHS if len(enumerate_triangles(g))], ids=lambda g: f"n{g.n}m{g.m}"
)
def test_triangle_ranking_matches_loop_ranking(graph):
    rng = random.Random(graph.n * 1000 + graph.m)
    triangles = enumerate_triangles(graph)
    t = len(triangles)
    degrees = degree_centrality(graph).scores

    got = triangle_importance(graph, triangles, degrees)
    tri = triangles.triangle_array
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


@pytest.mark.parametrize("name", ["karate", "celegans-metabolic"])
def test_oracle_triangle_ranking_reads_like_the_library(name):
    """top, score_of and rank_of of the loop ranking, ties included."""
    graph = load_dataset(name)
    triangles = enumerate_triangles(graph)
    degrees = degree_centrality(graph).scores
    got = triangle_importance(graph, triangles, degrees)
    tri = triangles.triangle_array
    sums = degrees[tri[:, 0]] + degrees[tri[:, 1]] + degrees[tri[:, 2]]
    want = rank_triangles("triangle-importance", {}, graph, triangles, sums, TRIANGLE_TIE_TOL)
    ranks = [entry.rank for entry in want.entries]
    assert len(set(ranks)) < len(ranks)  # integer degree sums tie
    for k in (0, 1, 10, len(want)):
        assert want.top(k) == got.top(k)
    for entry in want.entries:
        corners = entry.vertices[::-1]
        assert want.score_of(corners) == got.score_of(corners) == entry.score
        assert want.rank_of(corners) == got.rank_of(corners) == entry.rank


def test_cached_index_arrays_are_read_only(g14, g14_triangles):
    edges = g14.edge_array
    tris = g14_triangles.triangle_array
    assert edges is g14.edge_array and tris is g14_triangles.triangle_array
    assert edges.dtype == np.int64 and tris.dtype == np.int64
    assert edges.tolist() == [list(e) for e in g14.edges]
    assert tris.tolist() == [list(t) for t in triangles_by_forward_loop(g14)]
    with pytest.raises(ValueError, match="read-only"):
        edges[0, 0] = 5
    with pytest.raises(ValueError, match="read-only"):
        tris[0, 0] = 5


# --- triangle listing ---------------------------------------------------------


def listing_graphs() -> list[Graph]:
    rng = random.Random(41)
    graphs = [load_dataset(name) for name in dataset_names()]
    graphs += [
        random_connected_graph(rng, n, p)
        for n, p in ((2, 0.0), (6, 0.9), (15, 0.4), (30, 0.2), (60, 0.1), (90, 0.35))
    ]
    graphs += [star_graph(leaves) for leaves in (1, 2, 25)]
    graphs += [oracles.complete_graph(k) for k in range(4, 9)]  # every degree ties
    pendant = [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "e")]
    graphs.append(remove_vertices(Graph.from_edge_labels(pendant), ["d"]))  # e is isolated
    graphs.append(remove_vertices(star_graph(4), ["c"]))  # four isolated vertices, m = 0
    graphs.append(load_edge_list(io.StringIO(cli_grid.clustered_text(2000, 11))))
    return graphs


LISTING_GRAPHS = listing_graphs()


def assert_listing_matches_forward_loop(graph: Graph):
    """graph's listing equals the forward loop's: the same rows in a
    read-only (T, 3) int64 triangle_array."""
    got, want = enumerate_triangles(graph), triangles_by_forward_loop(graph)
    assert got.n == graph.n and len(got) == len(want)
    arr = got.triangle_array
    assert arr.dtype == np.int64 and arr.shape == (len(want), 3)
    assert arr.tolist() == [list(t) for t in want]
    assert not arr.flags.writeable


@pytest.mark.parametrize("graph", LISTING_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_listing_matches_forward_loop(graph):
    assert_listing_matches_forward_loop(graph)


def test_listing_cases_cover_isolated_vertices_and_no_edges():
    assert any(g.m == 0 for g in LISTING_GRAPHS)
    assert any(0 < g.m and 0 in g.degrees() for g in LISTING_GRAPHS)
    assert len(enumerate_triangles(LISTING_GRAPHS[-1])) > 4000


@pytest.mark.parametrize("chunk", (1, 2, 7))
def test_listing_chunks_split_wedges_anywhere(monkeypatch, chunk):
    """Wedges checked a few at a time, so chunks start and end inside one
    arc's wedges, give the listing the forward loop gives."""
    monkeypatch.setattr(graph_module, "_WEDGE_CHUNK", chunk)
    clique = [(f"k{i}", f"k{j}") for i in range(30) for j in range(i + 1, 30)]
    path = [("k0", "p0")] + [(f"p{i}", f"p{i + 1}") for i in range(5)]
    graph = Graph.from_edge_labels(clique + path)
    assert_listing_matches_forward_loop(graph)
    assert len(enumerate_triangles(graph)) == math.comb(30, 3)


# --- rank correlations ------------------------------------------------------

METHODS = ("kendall", "spearman")


def oracle_correlation(a, b, method, tie_tol=VERTEX_TIE_TOL):
    if method == "kendall":
        return kendall_tau_b(a, b, tie_tol)
    return pearson_of_ranks(average_ranks(a, tie_tol), average_ranks(b, tie_tol))


def correlation_or_error(compute):
    try:
        return compute()
    except ValueError as exc:
        return str(exc)


def assert_correlation_matches_oracle(a, b, tie_tol=VERTEX_TIE_TOL):
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
        ("n2-agree", np.array([1.0, 2.0]), np.array([3.0, 5.0]), VERTEX_TIE_TOL),
        ("n2-reverse", np.array([1.0, 2.0]), np.array([5.0, 3.0]), VERTEX_TIE_TOL),
    ]
    for k in range(6):
        n = rng.randrange(3, 60)
        few = lambda: np.array([float(rng.randrange(3)) for _ in range(n)])
        wide = lambda: np.array([float(rng.randrange(50)) for _ in range(n)])
        uniform = lambda: np.array([rng.random() for _ in range(n)])
        cases += [
            (f"exact-ties-{k}", few(), few(), VERTEX_TIE_TOL),
            (f"integers-{k}", wide(), wide(), VERTEX_TIE_TOL),
            (f"ties-vs-uniform-{k}", few(), uniform(), VERTEX_TIE_TOL),
            (f"uniform-{k}", uniform(), uniform(), VERTEX_TIE_TOL),
            (
                f"chained-{k}",
                chained_scores(rng, n, VERTEX_TIE_TOL),
                chained_scores(rng, n, VERTEX_TIE_TOL),
                VERTEX_TIE_TOL,
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


@pytest.mark.parametrize("seed", range(6))
def test_rank_correlations_are_bitwise_unchanged_by_negating_both(seed):
    """Negating both vectors reverses both rankings: spearman and kendall
    return the same bits, on chained near-ties and on exact ties."""
    rng = random.Random(90001 + seed)
    n = rng.randrange(5, 80)
    few = lambda: np.array([float(rng.randrange(4)) for _ in range(n)])
    chained = lambda tol: chained_scores(rng, n, tol)
    cases = [
        (chained(VERTEX_TIE_TOL), chained(VERTEX_TIE_TOL), VERTEX_TIE_TOL),
        (few(), few(), VERTEX_TIE_TOL),
        (few(), chained(1e-3), 1e-3),
    ]
    for a, b, tie_tol in cases:
        for method in METHODS:
            want = rank_correlation(a, b, method, tie_tol=tie_tol)
            got = rank_correlation(-a, -b, method, tie_tol=tie_tol)
            assert got.hex() == want.hex(), (method, got, want)


def test_degenerate_ties_raise_like_the_oracles():
    tol = VERTEX_TIE_TOL
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
    b = chained_scores(rng, n, VERTEX_TIE_TOL)
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


def equal_denominator_cases() -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Seeded score pairs whose two rankings share one tie pattern, so that
    spearman's da == db and kendall's untied_a == untied_b: a permutation of
    tie-free scores, a permutation of scores with exact ties, and perfect
    agreement and disagreement."""
    cases = []
    for k in range(6):
        rng = random.Random(70001 + k)
        n = rng.randrange(4, 90)
        distinct = np.array(rng.sample(range(10**6), n)) / 7.0
        tied = np.array(rng.sample([float(i // 3) for i in range(n)], n))  # ties of three
        cases += [
            (f"tie-free-permuted-{k}", distinct, rng.sample(list(distinct), n)),
            (f"tied-permuted-{k}", tied, rng.sample(list(tied), n)),
            (f"agree-{k}", distinct, 3.0 * distinct + 1.0),
            (f"disagree-{k}", tied, -tied),
        ]
    return [(name, a, np.array(b)) for name, a, b in cases]


EQUAL_DENOMINATOR_CASES = equal_denominator_cases()


@pytest.mark.parametrize(
    "a, b", [c[1:] for c in EQUAL_DENOMINATOR_CASES], ids=[c[0] for c in EQUAL_DENOMINATOR_CASES]
)
def test_equal_denominators_divide_exactly(monkeypatch, a, b):
    """On the da == db and untied_a == untied_b branches, spearman and kendall
    are the int quotient, bitwise float(Fraction(...)) of the loop oracles;
    perfect agreement is exactly +1 and perfect disagreement exactly -1.
    analysis.math has no sqrt here, so the square-root branch cannot run."""
    want = {method: oracle_correlation(a, b, method) for method in METHODS}
    monkeypatch.setattr(analysis, "math", types.SimpleNamespace())
    for method in METHODS:
        got = rank_correlation(a, b, method)
        assert got.hex() == want[method].hex(), (method, got, want[method])
        if np.array_equal(np.argsort(a, kind="stable"), np.argsort(b, kind="stable")):
            assert got == 1.0
        elif np.array_equal(b, -a):
            assert got == -1.0


def test_int_quotient_is_the_float_of_the_fraction():
    """a / b of ints is float(Fraction(a, b)): both round the exact rational
    once. The denominators are positive, as the correlations' are: 0 / -b is
    -0.0, while Fraction normalises the sign into the numerator and gives 0.0."""
    rng = random.Random(31337)
    for _ in range(3000):
        b = rng.getrandbits(rng.randrange(1, 1200)) + 1
        bound = b.bit_length() + rng.randrange(-200, 1000)  # keeps |a / b| < 2**1024
        a = rng.getrandbits(max(bound, 1)) * rng.choice((-1, 1))
        assert (a / b).hex() == float(Fraction(a, b)).hex(), (a, b)
    for a, b in ((0, 3), (1, 3), (-2, 3), (2**60 + 1, 2**60), (1, 2**1074), (1, 2**1080)):
        assert (a / b).hex() == float(Fraction(a, b)).hex(), (a, b)


# --- one graph builder ------------------------------------------------------

EXTRA_LABELS = ("a,b", 'q"r')


def csr_neighbors(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """Each vertex's neighbours as the library's CSR (Graph._csr) holds them."""
    starts, neighbors = (a.tolist() for a in graph._csr)
    return tuple(tuple(neighbors[s:e]) for s, e in zip(starts, starts[1:]))


def assert_same_graph(got: Graph, want: OracleGraph):
    """got has the builder's labels, its edges (the same tuples of Python
    ints), its adjacency in its CSR, and its edges as a read-only (m, 2) int64
    edge_array."""
    assert got.labels == want.graph.labels
    assert repr(got.edges) == repr(want.edges)
    assert repr(csr_neighbors(got)) == repr(want.adjacency)
    arr = got.edge_array
    assert arr.dtype == np.int64 and arr.shape == (len(want.edges), 2)
    assert arr.tolist() == [list(e) for e in want.edges]
    assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr[...] = 0


def outcome(build):
    """(error type, message), or (warnings seen, graph), of build()."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            graph = build()
        except Exception as exc:  # the oracle's exception is the expectation
            return type(exc), str(exc)
    return [(w.category, str(w.message), w.filename) for w in caught], graph


def assert_same_outcome(got, want):
    if isinstance(want[1], OracleGraph):
        assert type(got[1]) is Graph, (got, want)
        assert got[0] == want[0]
        assert_same_graph(got[1], want[1])
    else:
        assert got == want


def edge_pairs(graph: Graph, rng: random.Random) -> list[tuple[str, str]]:
    """graph's edges as label pairs plus edges on the extra labels, shuffled and
    partly reversed, with forward and reversed repeats."""
    pairs = [(graph.labels[u], graph.labels[v]) for u, v in graph.edges]
    pairs += [(EXTRA_LABELS[0], graph.labels[0]), EXTRA_LABELS, (graph.labels[-1], EXTRA_LABELS[1])]
    pairs += [(b, a) for a, b in rng.sample(pairs, len(pairs) // 3)]
    pairs += rng.sample(pairs, len(pairs) // 4)
    rng.shuffle(pairs)
    return [(b, a) if rng.random() < 0.5 else (a, b) for a, b in pairs]


def edge_list_text(rng: random.Random, pairs, loop_p: float, parse_p: float) -> str:
    """pairs as edge-list lines, with comments, blank lines, self-loops (some on
    labels found nowhere else) and lines of one or three labels mixed in."""
    lines = ["# header"]
    for k, (a, b) in enumerate(pairs):
        r = rng.random()
        if r < loop_p:
            lines.append(f"{a} {a}" if rng.random() < 0.5 else f"iso{k} iso{k}")
        elif r < loop_p + parse_p:
            lines.append(rng.choice((f"{a}", f"{a} {b} {a}", f"{a} {b} x # c")))
        elif r < loop_p + parse_p + 0.05:
            lines.append(rng.choice(("", "   ", "# comment")))
        lines.append(f"{a} {b}" + rng.choice(("", "  # trailing", "\t")))
    return "\n".join(lines) + "\n"


def builder_cases():
    rng = random.Random(20261018)
    pair_lists = [edge_pairs(g, rng) for g in GRAPHS]
    clean = [[(g.labels[u], g.labels[v]) for u, v in g.edges] for g in GRAPHS]
    texts = [edge_list_text(rng, pairs, 0.0, 0.0) for pairs in clean]
    for k in range(48):
        pairs = rng.choice((pair_lists, clean))[k % len(GRAPHS)]
        texts.append(
            edge_list_text(rng, pairs, rng.choice((0.0, 0.02, 0.1)), rng.choice((0.0, 0.01, 0.05)))
        )
    texts += ["", "# only a comment\n", "x x\ny y\n", "a b\nb a\na\n", "a b c\nb b\n"]
    return pair_lists, texts


PAIR_LISTS, EDGE_TEXTS = builder_cases()


def test_builder_cases_cover_every_path():
    plain = [outcome(lambda: oracles.load_edge_list(io.StringIO(t))) for t in EDGE_TEXTS]
    deduped = [outcome(lambda: oracles.load_edge_list(io.StringIO(t), dedupe=True)) for t in EDGE_TEXTS]
    messages = [o[1] for o in plain + deduped if not isinstance(o[1], OracleGraph)]
    for fragment in ("duplicate edge", "self-loop at", "expected two labels", "empty graph"):
        assert any(fragment in m for m in messages), fragment
    assert sum(isinstance(o[1], OracleGraph) for o in plain) >= len(GRAPHS)
    assert any(o[0] and isinstance(o[1], OracleGraph) for o in deduped)
    assert any(
        isinstance(g, OracleGraph) and () in g.adjacency for _, g in deduped
    ), "a vertex kept only from a skipped self-loop line"


@pytest.mark.parametrize("pairs", PAIR_LISTS, ids=lambda p: f"pairs{len(p)}")
def test_from_edge_labels_matches_seed_builder(pairs):
    assert_same_graph(Graph.from_edge_labels(pairs), graph_from_edge_labels(pairs))
    assert_same_graph(Graph.from_edge_labels(iter(pairs)), graph_from_edge_labels(pairs))
    rng = random.Random(len(pairs))
    at = rng.randrange(len(pairs))
    for bad in (pairs[:at] + [(pairs[at][1], pairs[at][1])] + pairs[at:], []):
        assert_same_outcome(
            outcome(lambda: Graph.from_edge_labels(bad)),
            outcome(lambda: graph_from_edge_labels(bad)),
        )


@pytest.mark.parametrize("dedupe", (False, True))
@pytest.mark.parametrize("text", EDGE_TEXTS, ids=lambda t: f"lines{t.count(chr(10))}")
def test_load_edge_list_matches_seed_parser(text, dedupe):
    got = outcome(lambda: load_edge_list(io.StringIO(text), dedupe=dedupe))
    want = outcome(lambda: oracles.load_edge_list(io.StringIO(text), dedupe=dedupe))
    assert_same_outcome(got, want)
    if isinstance(want[1], OracleGraph) and want[0]:
        assert want[0][0][2] == __file__  # the warning names the caller's line


def test_load_edge_list_reads_paths_like_the_seed(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text(EDGE_TEXTS[3])
    for source in (path, str(path)):
        assert_same_graph(load_edge_list(source), oracles.load_edge_list(source))


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_remove_vertices_matches_seed(graph):
    rng = random.Random(graph.m)
    hub = max(range(graph.n), key=graph.degrees().__getitem__)
    cases = [
        [],
        [graph.labels[hub]],
        [graph.labels[j] for j in oracles.neighbors_of(graph)[hub]],  # leaves the hub isolated
        rng.sample(graph.labels, rng.randrange(1, graph.n)),
        list(graph.labels),  # removes every vertex
        [graph.labels[0], "no such label", graph.labels[0]],
        [graph.labels[-1], graph.labels[-1]],
    ]
    for doomed in cases:
        assert_same_outcome(
            outcome(lambda: remove_vertices(graph, doomed)),
            outcome(lambda: oracles.remove_vertices(graph, doomed)),
        )


def multi_component_graphs() -> list[Graph]:
    """Disjoint unions of sample graphs, single edges and isolated vertices."""
    rng = random.Random(7)
    graphs = []
    for k in range(6):
        lines = []
        for part, g in enumerate(rng.sample(GRAPHS, rng.randrange(2, 5))):
            lines += [f"c{part}:{g.labels[u]} c{part}:{g.labels[v]}" for u, v in g.edges]
        lines += [f"e{k} f{k}"] + [f"iso{j} iso{j}" for j in range(k % 3)]
        rng.shuffle(lines)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            graphs.append(load_edge_list(io.StringIO("\n".join(lines)), dedupe=True))
    return graphs + [g for g in GRAPHS if len(connected_components(g)) > 1]


MULTI_COMPONENT = multi_component_graphs()


@pytest.mark.parametrize("graph", MULTI_COMPONENT, ids=lambda g: f"n{g.n}m{g.m}")
def test_induced_subgraphs_and_atec_per_component_match_seed(monkeypatch, graph):
    monkeypatch.setattr(tensor, "_ANDERSON_DEPTH", 0)  # the seed's power iteration
    components = connected_components(graph)
    assert len(components) > 1
    for comp in components:
        keep = sorted(comp)
        assert_same_graph(_induced(graph, np.array(keep, dtype=np.int64)), induced(graph, keep))
    for alpha in (1.0, 0.5, 0.01):
        report = atec_per_component(graph, alpha)
        scores = np.zeros(graph.n)
        iterations, residual = 0, 0.0
        for comp in components:
            keep = sorted(comp)
            sub = induced(graph, keep).graph
            op = AlphaTriangleOperator(sub, enumerate_triangles(sub), alpha)
            res = solve_spectral_by_loop(op)
            scores[keep] = res.x
            iterations += res.iterations
            residual = max(residual, res.residual)
        assert report.scores.tobytes() == scores.tobytes()
        assert report.meta["iterations"] == iterations
        assert report.meta["residual"].hex() == residual.hex()
        assert report.meta["components"] == len(components)


@pytest.mark.parametrize(
    "graph",
    [g for g in GRAPHS if is_connected(g)] + [load_dataset(name) for name in dataset_names()],
    ids=lambda g: f"n{g.n}m{g.m}",
)
def test_atec_per_component_equals_atec_on_connected_graphs(graph):
    triangles = enumerate_triangles(graph)
    for alpha in (1.0, 0.5, 0.01):
        assert (
            atec_per_component(graph, alpha).scores.tobytes()
            == atec(graph, alpha, triangles=triangles).scores.tobytes()
        )


@pytest.mark.parametrize(
    "graph",
    GRAPHS + MULTI_COMPONENT + [load_dataset(name) for name in dataset_names()],
    ids=lambda g: f"n{g.n}m{g.m}",
)
def test_weak_irreducibility_matches_digraph_oracle(graph):
    """The operator's digraph is strongly connected (the tensor is weakly
    irreducible) exactly when the graph is connected, and solve_spectral
    refuses the operator exactly when it is not."""
    triangles = enumerate_triangles(graph)
    for alpha in (1.0, 0.5, 0.01):
        op = AlphaTriangleOperator(graph, triangles, alpha)
        irreducible = digraph_strongly_connected(op)
        assert irreducible == is_connected(graph)
        if irreducible:
            assert solve_spectral(op).x.min() > 0.0
        else:
            with pytest.raises(NotConnectedError):
                solve_spectral(op)


# --- one shifted power kernel -----------------------------------------------


def assert_same_spectral(got, want):
    assert got.rho.hex() == want.rho.hex()
    assert got.x.dtype == want.x.dtype and got.x.tobytes() == want.x.tobytes()
    assert got.iterations == want.iterations
    assert got.residual.hex() == want.residual.hex()
    assert [v.hex() for v in got.bracket] == [v.hex() for v in want.bracket]


def recorded_solve(solve, op, **kwargs):
    """(result, or the ConvergenceError raised, and every (x, A x^2) the solve took)."""
    calls = record_apply(op)
    try:
        return solve(op, **kwargs), calls
    except ConvergenceError as exc:
        return exc, calls


@pytest.mark.parametrize("graph", KERNEL_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_eigenvector_centrality_matches_seed_loop(monkeypatch, graph):
    monkeypatch.setattr(tensor, "_ANDERSON_DEPTH", 0)  # the seed's power iteration
    got = eigenvector_centrality(graph)
    want = eigenvector_centrality_by_loop(graph)
    assert got.scores.tobytes() == want.scores.tobytes()
    # the loop product is the dense one, up to the rounding of its order
    x = want.scores
    a_x = adjacency_of(graph) @ x
    rounding = 2 * graph.n * np.finfo(float).eps * a_x  # sums of at most n terms
    assert np.all(np.abs(adjacency_product_by_loop(graph)(x) - a_x) <= rounding)
    assert got.ranking == want.ranking
    assert got.meta.keys() == want.meta.keys()
    for key, value in want.meta.items():
        assert repr(got.meta[key]) == repr(value), key
    if want.meta["iterations"] > 2:
        with pytest.raises(ConvergenceError) as got_err:
            eigenvector_centrality(graph, max_iter=2)
        with pytest.raises(ConvergenceError) as want_err:
            eigenvector_centrality_by_loop(graph, max_iter=2)
        assert "no convergence after 2 iterations" in str(got_err.value)
        assert got_err.value.bracket == want_err.value.bracket
        assert got_err.value.iterations == want_err.value.iterations == 2


@pytest.mark.parametrize("graph", KERNEL_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_solve_spectral_matches_seed_loop(monkeypatch, graph):
    monkeypatch.setattr(tensor, "_ANDERSON_DEPTH", 0)  # the seed's power iteration
    triangles = enumerate_triangles(graph)
    x0 = np.linspace(1.0, 2.0, graph.n)
    for alpha in (1.0, 0.5, 0.01):
        for kwargs in ({}, {"x0": x0, "max_iter": 3000}, {"max_iter": 2}):
            got, got_calls = recorded_solve(
                solve_spectral, AlphaTriangleOperator(graph, triangles, alpha), **kwargs
            )
            want, want_calls = recorded_solve(
                solve_spectral_by_loop, AlphaTriangleOperator(graph, triangles, alpha), **kwargs
            )
            steps = want.iterations
            if isinstance(want, ConvergenceError):
                assert isinstance(got, ConvergenceError)
                assert str(got) == str(want) and got.bracket == want.bracket
                assert len(want_calls) == steps
            else:
                assert_same_spectral(got, want)
                assert len(want_calls) == steps + 1  # the loop applies again for the residual
            # the same iterates, products and brackets, bit for bit, step by step
            assert len(got_calls) == steps
            for (gx, gax), (wx, wax) in zip(got_calls, want_calls[:steps]):
                assert gx.tobytes() == wx.tobytes() and gax.tobytes() == wax.tobytes()
            brackets = collatz_wielandt_brackets(got_calls)
            assert [v.hex() for v in brackets[-1]] == [v.hex() for v in got.bracket]
            assert all(hi - lo >= tensor.DEFAULT_TOL for lo, hi in brackets[:-1])


def test_solver_calls_apply_through_the_instance(karate):
    """A wrapper assigned to op.apply sees every product the solve takes."""
    op = AlphaTriangleOperator(karate, enumerate_triangles(karate), 0.5)
    inner, calls = op.apply, []

    def counted(x):
        calls.append(x.copy())
        return inner(x)

    op.apply = counted
    result = solve_spectral(op)
    assert len(calls) == result.iterations  # one per step; the residual reuses the last
    assert calls[-1].tobytes() == result.x.tobytes()


def small_connected_graphs() -> list[Graph]:
    """Seeded random connected graphs of 2 to 11 vertices, trees to near-complete."""
    rng = random.Random(48)
    return [
        random_connected_graph(rng, n, p) for n in range(2, 12) for p in (0.0, 0.3, 0.9)
    ]


@pytest.mark.parametrize("depth", [tensor._ANDERSON_DEPTH, 0], ids=["anderson", "power"])
def test_tolerance_within_rounding_fails_at_the_first_iteration(monkeypatch, depth):
    """tol 1e-300 is below the rounding of every bracket, so every solve
    refuses it at iteration 1; none meets it with a bracket that rounding
    closed (regular graphs give width 0 at once). At depth 0 the refusal is
    the loop oracle's, message and bracket alike."""
    monkeypatch.setattr(tensor, "_ANDERSON_DEPTH", depth)
    for graph in small_connected_graphs():
        triangles = enumerate_triangles(graph)
        for alpha in (1.0, 0.5, 0.01):
            op = AlphaTriangleOperator(graph, triangles, alpha)
            with pytest.raises(ConvergenceError, match="no convergence") as got:
                solve_spectral(op, tol=1e-300)
            assert got.value.iterations == 1
            if depth == 0:
                with pytest.raises(ConvergenceError) as want:
                    solve_spectral_by_loop(op, tol=1e-300)
                assert str(got.value) == str(want.value)
                assert got.value.bracket == want.value.bracket
                assert want.value.iterations == 1
        with pytest.raises(ConvergenceError, match="no convergence") as got:
            eigenvector_centrality(graph, tol=1e-300)
        assert got.value.iterations == 1
        if depth == 0:
            with pytest.raises(ConvergenceError) as want:
                eigenvector_centrality_by_loop(graph, tol=1e-300)
            assert str(got.value) == str(want.value)
            assert got.value.bracket == want.value.bracket


def test_eigenvector_centrality_builds_no_dense_matrix(monkeypatch, no_dense_adjacency):
    """EC on a 3000-vertex graph sums on the CSR, bitwise as the per-row loop."""
    monkeypatch.setattr(tensor, "_ANDERSON_DEPTH", 0)  # the seed's power iteration
    graph = holme_kim_graph(random.Random(3), 3000)
    got = eigenvector_centrality(graph)
    want = eigenvector_centrality_by_loop(graph)
    assert got.scores.tobytes() == want.scores.tobytes()
    for key, value in want.meta.items():
        assert repr(got.meta[key]) == repr(value), key


# --- the Anderson-mixed default against the power loop ----------------------

# The power loop's own vector is only as close to the eigenvector as a bracket
# of width tol allows (8.7e-10 off on a 30-vertex tree at alpha 0.01), so the
# reference runs to a bracket 100 times narrower.
REFERENCE_TOL = tensor.DEFAULT_TOL / 100


def assert_anderson_result(got, calls, order=3):
    """Positive unit vector; a bracket narrower than tol around rho that is
    the running intersection of the brackets of the recorded iterates, one
    per iteration, each of which encloses rho; only the last is narrower
    than tol."""
    tol = tensor.DEFAULT_TOL
    assert np.all(got.x > 0)
    assert abs(float(np.linalg.norm(got.x)) - 1.0) < 1e-12
    lo, hi = got.bracket
    assert lo <= got.rho <= hi and hi - lo < tol
    assert got.residual <= 10 * tol
    assert len(calls) == got.iterations and calls[-1][0].tobytes() == got.x.tobytes()
    brackets = collatz_wielandt_brackets(calls, order)
    slack = rounding_slack(got.rho)
    for lo_k, hi_k in brackets:
        assert lo_k - slack <= got.rho <= hi_k + slack
    assert all(hi_k - lo_k >= tol for lo_k, hi_k in brackets[:-1])
    assert brackets[-1][1] - brackets[-1][0] < tol
    assert running_intersection(brackets)[-1] == got.bracket


def rounding_slack(value: float) -> float:
    """Rounding error allowed in a computed Collatz-Wielandt ratio."""
    return 64 * np.finfo(float).eps * abs(value)


@pytest.mark.parametrize("graph", KERNEL_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_anderson_solve_matches_power_loop(graph):
    triangles = enumerate_triangles(graph)
    for alpha in (1.0, 0.5, 0.01):
        op = AlphaTriangleOperator(graph, triangles, alpha)
        calls = record_apply(op)
        got = solve_spectral(op)
        assert_anderson_result(got, calls)
        want = solve_spectral_by_loop(op, tol=REFERENCE_TOL)
        # both brackets enclose rho, so they overlap; the midpoints differ by < tol
        assert max(got.bracket[0], want.bracket[0]) <= (
            min(got.bracket[1], want.bracket[1]) + rounding_slack(want.rho)
        )
        assert abs(got.rho - want.rho) < tensor.DEFAULT_TOL
        assert np.max(np.abs(got.x - want.x)) < 1e-9


@pytest.mark.parametrize("graph", KERNEL_GRAPHS, ids=lambda g: f"n{g.n}m{g.m}")
def test_anderson_eigenvector_centrality_matches_power_loop(graph):
    matrix = types.SimpleNamespace(n=graph.n, apply=adjacency_product_by_loop(graph))
    calls = record_apply(matrix)
    got = tensor._shifted_power(matrix, 2)
    assert_anderson_result(got, calls, order=2)
    lam = float(np.linalg.eigvalsh(adjacency_of(graph))[-1])
    lo, hi = got.bracket
    assert lo - rounding_slack(lam) <= lam <= hi + rounding_slack(lam)
    report = eigenvector_centrality(graph)
    assert report.scores.tobytes() == got.x.tobytes()
    assert report.meta["eigenvalue"] == got.rho
    want = eigenvector_centrality_by_loop(graph, tol=REFERENCE_TOL)
    assert abs(got.rho - want.meta["eigenvalue"]) < tensor.DEFAULT_TOL
    assert np.max(np.abs(got.x - want.scores)) < 1e-9


def test_anderson_restarts_after_a_nonpositive_mixed_iterate(monkeypatch, g14, g14_triangles):
    """On paper-g14 at alpha 0.01 one mixed iterate leaves the positive
    orthant; the solve restarts from the plain step and still converges."""
    mix, restarts = tensor._AndersonMixer.mix, []

    def spied(self, x, gx):
        had_history = self.f is not None
        out = mix(self, x, gx)
        if had_history and out is gx:  # a history existed, yet the plain step came back
            restarts.append(self.count)  # differences kept after the restart
        return out

    monkeypatch.setattr(tensor._AndersonMixer, "mix", spied)
    op = AlphaTriangleOperator(g14, g14_triangles, 0.01)
    calls = record_apply(op)
    got = solve_spectral(op)
    assert restarts and set(restarts) == {0}
    assert_anderson_result(got, calls)
    want = solve_spectral_by_loop(op, tol=REFERENCE_TOL)
    assert np.max(np.abs(got.x - want.x)) < 1e-9


def test_anderson_converges_from_an_off_orbit_seed(g14, g14_triangles):
    """From linspace(1, 2, 14) on paper-g14 at alpha 0.01 the power loop's
    bracket is still about 2e-5 wide after 20 000 iterations; the mixed
    solve converges."""
    op = AlphaTriangleOperator(g14, g14_triangles, 0.01)
    calls = record_apply(op)
    got = solve_spectral(op, x0=np.linspace(1.0, 2.0, 14))
    assert got.iterations < 200
    assert_anderson_result(got, calls)
    uniform_start = solve_spectral_by_loop(op)
    assert np.max(np.abs(got.x - uniform_start.x)) < 1e-9


# --- adjacency matrix and level-synchronous betweenness ----------------------


def betweenness_graphs() -> dict[str, Graph]:
    """Bundled datasets, random graphs (trees, several components, isolated
    vertices, a single vertex) and Holme-Kim-like graphs with n >= 500."""
    rng = random.Random(53)
    graphs = {name: load_dataset(name) for name in dataset_names()}
    graphs["single-vertex"] = remove_vertices(Graph.from_edge_labels([("a", "b")]), ["a"])
    for i, g in enumerate(GRAPHS + MULTI_COMPONENT + [random_tree(rng, n) for n in (2, 7, 30)]):
        graphs[f"random{i}"] = g
    for i in range(6):
        g = random_graph(rng, rng.randrange(8, 40), rng.choice((0.1, 0.2, 0.4)))
        # removing the highest-degree vertices strands some of their neighbours
        degrees = g.degrees()
        hubs = sorted(range(g.n), key=lambda v: -degrees[v])[: rng.randrange(1, 4)]
        graphs[f"removed{i}"] = remove_vertices(g, [g.labels[v] for v in hubs])
    for n in (500, 600):
        graphs[f"holme-kim{n}"] = holme_kim_graph(rng, n)
    return graphs


BC_GRAPHS = betweenness_graphs()
BC_WANT: dict[str, bytes] = {}


def test_betweenness_sample_covers_every_case():
    components = [len(connected_components(g)) for g in BC_GRAPHS.values()]
    isolated = [min(g.degrees()) == 0 for g in BC_GRAPHS.values()]
    assert BC_GRAPHS["single-vertex"].n == 1
    assert sum(c > 1 for c in components) >= 10
    assert sum(isolated) >= 3
    assert sum(g.m == g.n - 1 and c == 1 for g, c in zip(BC_GRAPHS.values(), components)) >= 3
    # the default block size splits the large graphs, one with a shorter last block
    big = [BC_GRAPHS["holme-kim500"], BC_GRAPHS["holme-kim600"]]
    blocks = [centrality._BLOCK_SLOTS // (g.n + 2 * g.m) for g in big]
    assert all(1 < b < g.n for b, g in zip(blocks, big))
    assert any(g.n % b for b, g in zip(blocks, big))


@pytest.mark.parametrize("block", (None, 1, 7), ids=lambda b: f"block{b or 'auto'}")
@pytest.mark.parametrize("name", BC_GRAPHS)
def test_betweenness_matches_seed_loop(monkeypatch, name, block):
    graph = BC_GRAPHS[name]
    if name not in BC_WANT:
        BC_WANT[name] = betweenness_by_loop(graph).tobytes()
    if block is not None:
        monkeypatch.setattr(centrality, "_BLOCK_SLOTS", block * (graph.n + 2 * graph.m))
    levels = centrality._brandes_by_levels(graph)
    assert levels is not None and levels.tobytes() == BC_WANT[name]
    assert betweenness_centrality(graph).scores.tobytes() == BC_WANT[name]


def triangle_sum_graphs() -> dict[str, Graph]:
    """The betweenness sample (the four datasets among it; its trees are
    triangle-free), a clustered graph on 2000 vertices, a vertex with both
    triangle and non-triangle edges, and a disconnected graph with an
    isolated vertex."""
    graphs = dict(BC_GRAPHS)
    graphs["clustered2000"] = load_edge_list(io.StringIO(cli_grid.clustered_text(2000, 11)))
    # a is in triangle abc and d in triangle def; the edge a-d is in none
    graphs["mixed-edges"] = Graph.from_edge_labels(
        [("a", "b"), ("b", "c"), ("a", "c"), ("a", "d"), ("d", "e"), ("e", "f"), ("d", "f")]
    )
    # removing y leaves x isolated beside the triangle pqr and the path uvw
    graphs["isolated"] = remove_vertices(
        Graph.from_edge_labels(
            [("p", "q"), ("q", "r"), ("p", "r"), ("r", "s"), ("x", "y"), ("u", "v"), ("v", "w")]
        ),
        ["y"],
    )
    return graphs


TC_GRAPHS = triangle_sum_graphs()


def test_triangle_sum_sample_covers_every_case():
    mixed = TC_GRAPHS["mixed-edges"]
    a = mixed.id_of("a")
    triangles = enumerate_triangles(mixed).triangle_array.tolist()
    tri_neighbors = {v for tri in triangles if a in tri for v in tri}
    assert tri_neighbors - {a} and set(oracles.neighbors_of(mixed)[a]) - tri_neighbors
    isolated = TC_GRAPHS["isolated"]
    assert not is_connected(isolated) and isolated.degrees()[isolated.id_of("x")] == 0
    assert len(enumerate_triangles(isolated)) > 0
    assert all(name in TC_GRAPHS for name in dataset_names())


@pytest.mark.parametrize("name", TC_GRAPHS)
def test_triangle_centrality_matches_seed_loop(name):
    """Triangle-neighbourhood sums from edge arrays give the loop's bytes."""
    graph = TC_GRAPHS[name]
    triangles = enumerate_triangles(graph)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # triangle-free graphs warn
        got = triangle_centrality(graph, triangles).scores
    assert got.tobytes() == triangle_centrality_by_loop(graph, triangles).tobytes()


@pytest.mark.parametrize("name", TC_GRAPHS)
def test_neighbor_triangles_match_seed_loop(name):
    """NT equals the per-vertex Python sum, as Python ints, with D and T."""
    graph = TC_GRAPHS[name]
    triangles = enumerate_triangles(graph)
    stats = degree_and_triangle_stats(graph, triangles)
    assert stats.neighbor_triangles == tuple(neighbor_triangles_by_loop(graph, triangles))
    assert stats.triangle_count == tuple(triangles.count_per_vertex())
    assert stats.degree == tuple(graph.degrees())
    for column in (stats.degree, stats.triangle_count, stats.neighbor_triangles):
        assert all(type(v) is int for v in column)


@pytest.mark.parametrize("k, fast", ((52, True), (53, False)))
def test_betweenness_falls_back_to_the_loop_at_2_53_paths(monkeypatch, k, fast):
    graph = diamond_chain(k)
    loop, calls = centrality._brandes_by_loop, []

    def counted(g, exact):
        calls.append(exact)
        return loop(g, exact)

    monkeypatch.setattr(centrality, "_brandes_by_loop", counted)
    got = betweenness_centrality(graph).scores
    assert calls == ([] if fast else [False])
    assert got.tobytes() == betweenness_by_loop(graph).tobytes()
    exact = betweenness_centrality(graph, exact=True).scores
    assert calls[-1:] == [True]
    assert np.allclose(got, exact, rtol=1e-12, atol=0.0)
    # beside a triangle, the chain's component sends the whole graph to the loop
    pairs = [(graph.labels[u], graph.labels[v]) for u, v in graph.edges]
    union = Graph.from_edge_labels(pairs + [("t0", "t1"), ("t1", "t2"), ("t0", "t2")])
    calls.clear()
    got = betweenness_centrality(union).scores
    assert calls == ([] if fast else [False])
    assert got.tobytes() == betweenness_by_loop(union).tobytes()


def direction_graphs() -> dict[str, Graph]:
    """Graphs whose breadth-first levels go each way: a star's or a wheel's
    hub level is cheaper bottom-up, a path's levels top-down until its last
    few; dense random graphs, bushy trees, and disjoint unions of hubs, a
    path and a random graph (dense, with an isolated vertex, or sparse) mix
    both. Each component of a union runs on its own, so its hubs go
    bottom-up even where the arcs of the other components would outweigh
    their levels."""
    rng = random.Random(61)
    graphs = {
        "star": star_graph(60),
        "wheel": wheel_graph(60),
        "path": oracles.path_graph(300),
        "tree": oracles.random_tree(rng, 300),
    }
    for i, (n, p) in enumerate(((30, 0.5), (60, 0.7), (90, 0.9))):
        graphs[f"dense{i}"] = random_graph(rng, n, p)

    def disjoint_union(parts: list[Graph], *extra_lines: str) -> Graph:
        lines = [f"c{k}:{g.labels[u]} c{k}:{g.labels[v]}" for k, g in enumerate(parts) for u, v in g.edges]
        rng.shuffle(lines)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return load_edge_list(io.StringIO("\n".join([*lines, *extra_lines])), dedupe=True)

    hubs_and_path = [star_graph(20), wheel_graph(15), oracles.path_graph(40)]
    graphs["disconnected"] = disjoint_union([random_graph(rng, 60, 0.7), *hubs_and_path], "x x")
    graphs["disconnected-sparse"] = disjoint_union([*hubs_and_path, random_graph(rng, 25, 0.2)])
    return graphs


DIRECTION_GRAPHS = direction_graphs()


def count_directions(monkeypatch) -> dict[str, int]:
    """Count the levels _brandes_by_levels expands top-down and bottom-up."""
    calls = {"top-down": 0, "bottom-up": 0}
    for name, attr in (("top-down", "_top_down"), ("bottom-up", "_bottom_up")):
        expand = getattr(centrality, attr)

        def counted(*args, name=name, expand=expand):
            calls[name] += 1
            return expand(*args)

        monkeypatch.setattr(centrality, attr, counted)
    return calls


@pytest.mark.parametrize("block", (None, 1), ids=lambda b: f"block{b or 'auto'}")
@pytest.mark.parametrize("name", DIRECTION_GRAPHS)
def test_betweenness_in_both_directions_matches_seed_loop(monkeypatch, name, block):
    graph = DIRECTION_GRAPHS[name]
    if block is not None:
        monkeypatch.setattr(centrality, "_BLOCK_SLOTS", block * (graph.n + 2 * graph.m))
    calls = count_directions(monkeypatch)
    got = betweenness_centrality(graph).scores
    assert got.tobytes() == betweenness_by_loop(graph).tobytes()
    assert calls["top-down"] + calls["bottom-up"] > 0


def test_direction_graphs_go_the_expected_ways(monkeypatch):
    calls = count_directions(monkeypatch)
    seen = {}
    for name, graph in DIRECTION_GRAPHS.items():
        calls.update({"top-down": 0, "bottom-up": 0})
        centrality._brandes_by_levels(graph)
        seen[name] = dict(calls)
    assert all(seen[name]["bottom-up"] > 0 for name in ("star", "wheel"))
    # a path's last levels are cheaper bottom-up (fewer unreached arcs), no others
    assert seen["path"]["top-down"] > 50 * seen["path"]["bottom-up"] > 0
    for name in ("tree", "dense0", "dense1", "dense2", "disconnected", "disconnected-sparse"):
        assert seen[name]["top-down"] > 0 and seen[name]["bottom-up"] > 0
    assert len(connected_components(DIRECTION_GRAPHS["disconnected"])) == 5
    assert len(connected_components(DIRECTION_GRAPHS["disconnected-sparse"])) == 4


def test_bottom_up_levels_still_fall_back_at_2_53_paths(monkeypatch):
    """A star hung on the end of 53 diamonds: its hub's level goes bottom-up,
    and its leaves are 2**53 shortest paths from the chain's start."""
    chain = diamond_chain(53)
    pairs = [(chain.labels[u], chain.labels[v]) for u, v in chain.edges]
    graph = Graph.from_edge_labels(pairs + [("c53", f"leaf{i}") for i in range(200)])
    calls = count_directions(monkeypatch)
    loop, fell_back = centrality._brandes_by_loop, []

    def counted(g, exact):
        fell_back.append(exact)
        return loop(g, exact)

    monkeypatch.setattr(centrality, "_brandes_by_loop", counted)
    got = betweenness_centrality(graph).scores
    assert calls["bottom-up"] > 0 and fell_back == [False]
    assert got.tobytes() == betweenness_by_loop(graph).tobytes()


def fiedler_graphs() -> dict[str, Graph]:
    """The datasets, seeded random connected graphs (trees to dense) and
    Holme-Kim graphs."""
    rng = random.Random(83)
    graphs = {name: load_dataset(name) for name in dataset_names()}
    for i in range(16):
        n = rng.randrange(4, 160)
        graphs[f"random{i}"] = random_connected_graph(rng, n, rng.choice((0.0, 0.03, 0.1, 0.4)))
    for n in (300, 600):
        graphs[f"holme-kim{n}"] = holme_kim_graph(rng, n)
    graphs["path800"] = oracles.path_graph(800)  # lambda_3 - lambda_2 = 4.6e-5
    graphs["spider60"] = oracles.spider_graph((60, 60, 61))  # 1.5e-5
    return graphs


FIEDLER_GRAPHS = fiedler_graphs()
# the solves cannot pick the vector: there is no lambda_3, lambda_2 repeats
# (lambda_3 - lambda_2 within rounding), or, on the last spider,
# lambda_3 - lambda_2 = 3.2e-6 is too small for their bound
DEGENERATE_FIEDLER = {
    "K2": oracles.complete_graph(2),
    **{f"K{n}": oracles.complete_graph(n) for n in (3, 4, 6, 9)},
    **{f"C{n}": oracles.cycle_graph(n) for n in (4, 5, 7, 12)},
    "star": star_graph(6),
    "wheel": wheel_graph(8),
    "spider30": oracles.spider_graph((30, 30, 30)),
    "spider100": oracles.spider_graph((100, 100, 101)),
}


def record_solves(monkeypatch) -> list:
    """The result of every _fiedler_by_solves call (None: the eigh fallback)."""
    results = []
    solve = centrality._fiedler_by_solves

    def recorded(*args):
        results.append(solve(*args))
        return results[-1]

    monkeypatch.setattr(centrality, "_fiedler_by_solves", recorded)
    return results


@pytest.mark.parametrize("name", FIEDLER_GRAPHS)
def test_fiedler_solves_match_eigh(monkeypatch, name):
    """The solved vector is eigh's to 1e-10, with its sign and a residual
    below tol; a graph that falls back gets eigh's vector bitwise."""
    graph = FIEDLER_GRAPHS[name]
    solved = record_solves(monkeypatch)
    got = fiedler_vector(graph)
    want = oracles.fiedler_vector_by_eigh(graph)
    if solved[0] is None:
        assert got.tobytes() == want.tobytes()
        return
    assert np.max(np.abs(got - want)) <= 1e-10
    lead = int(np.argmax(np.abs(want) > 1e-8))
    assert got[lead] > 0 and want[lead] > 0
    lap = laplacian_matrix(graph)
    lam2 = float(np.linalg.eigvalsh(lap)[1])
    assert np.max(np.abs(lap @ got - lam2 * got)) < 1e-8
    assert abs(np.linalg.norm(got) - 1.0) < 1e-12


def test_fiedler_sample_takes_the_solves(monkeypatch):
    solved = record_solves(monkeypatch)
    for graph in FIEDLER_GRAPHS.values():
        fiedler_vector(graph)
    taken = dict(zip(FIEDLER_GRAPHS, (v is not None for v in solved)))
    assert all(taken[name] for name in (*dataset_names(), "holme-kim300", "holme-kim600"))
    assert sum(taken.values()) >= len(taken) - 2


@pytest.mark.parametrize("name", DEGENERATE_FIEDLER)
def test_fiedler_degenerate_graphs_take_the_eigh_fallback(monkeypatch, name):
    graph = DEGENERATE_FIEDLER[name]
    solved = record_solves(monkeypatch)
    got = fiedler_vector(graph)
    assert len(solved) == 1 and solved[0] is None
    assert got.tobytes() == oracles.fiedler_vector_by_eigh(graph).tobytes()


def test_laplacian_matrix_matches_dense_oracle():
    for graph in (*FIEDLER_GRAPHS.values(), *DEGENERATE_FIEDLER.values()):
        a = adjacency_of(graph)
        want = np.diag(a.sum(axis=1)) - a
        assert laplacian_matrix(graph).tobytes() == want.tobytes()


@pytest.mark.parametrize("graph", GRAPHS + MULTI_COMPONENT, ids=lambda g: f"n{g.n}m{g.m}")
def test_adjacency_matrix_matches_edge_loop(graph):
    assert adjacency_matrix(graph).tobytes() == adjacency_of(graph).tobytes()


def test_adjacency_matrix_matches_edge_loop_on_datasets():
    for name in dataset_names():
        graph = load_dataset(name)
        got = adjacency_matrix(graph)
        assert got.dtype == np.float64 and got.shape == (graph.n, graph.n)
        assert got.tobytes() == adjacency_of(graph).tobytes()
