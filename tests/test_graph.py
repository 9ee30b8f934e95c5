import io
import random
import re
from itertools import combinations

import numpy as np
import pytest

import tricent
from tricent import (
    DuplicateEdgeWarning,
    EdgeListParseError,
    Graph,
    GraphValidationError,
    NotConnectedError,
    TriangleSet,
    atec,
    atec_per_component,
    betweenness_centrality,
    build_operator,
    connected_components,
    cycle_index_fiedler,
    dataset_names,
    dataset_path,
    degree_and_triangle_stats,
    degree_centrality,
    dump_edge_list,
    eigenvector_centrality,
    enumerate_triangles,
    is_connected,
    load_dataset,
    load_edge_list,
    removal_experiment,
    remove_vertices,
    subgraph_centrality,
    triangle_centrality,
    triangle_importance,
)

from oracles import (
    components_by_bfs,
    incidence_by_loop,
    neighbors_of,
    random_connected_graph,
    triangle_count_by_trace,
    triangles_by_combinations,
)


class TestLoadEdgeList:
    def test_k3_from_text(self):
        g = load_edge_list(io.StringIO("1 2\n2 3\n1 3"))
        assert g.n == 3
        assert g.m == 3
        assert g.labels == ("1", "2", "3")

    def test_dedupe_reports_duplicates(self):
        with pytest.warns(DuplicateEdgeWarning, match="2 duplicate"):
            g = load_edge_list(io.StringIO("a b\nb a\na b"), dedupe=True)
        assert g.n == 2
        assert g.m == 1

    def test_duplicate_without_dedupe_raises(self):
        with pytest.raises(GraphValidationError, match="duplicate"):
            load_edge_list(io.StringIO("a b\nb a"))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError, match="self-loop"):
            load_edge_list(io.StringIO("a a"))

    def test_self_loop_skipped_with_dedupe(self):
        with pytest.warns(DuplicateEdgeWarning, match="self-loop"):
            g = load_edge_list(io.StringIO("a a\na b"), dedupe=True)
        assert g.m == 1

    def test_malformed_line_carries_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            load_edge_list(io.StringIO("a b\na b c\n"))

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("# header\na b c\n", 2, "expected two labels, got 3: 'a b c'"),
            ("a b\n  x y z  # note\n", 2, "expected two labels, got 3: 'x y z'"),
            ("a b\nlonely # a comment\n", 2, "expected two labels, got 1: 'lonely'"),
            ("a b\nc\td\te\n", 2, "expected two labels, got 3: 'c\\td\\te'"),
            ("a b\n \t  \nc\n", 3, "expected two labels, got 1: 'c'"),
        ],
    )
    def test_malformed_line_message_and_number(self, text, line, message):
        with pytest.raises(EdgeListParseError) as err:
            load_edge_list(io.StringIO(text))
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"

    def test_comments_and_blank_lines(self):
        text = "# header\n\n1 2  # trailing\n   \n2 3\n"
        g = load_edge_list(io.StringIO(text))
        assert g.m == 2

    def test_empty_input_rejected(self):
        with pytest.raises(GraphValidationError, match="empty"):
            load_edge_list(io.StringIO("# nothing\n"))

    def test_first_appearance_label_order(self):
        g = load_edge_list(io.StringIO("z a\na q"))
        assert g.labels == ("z", "a", "q")

    def test_dolphins_counts(self, dolphins):
        assert dolphins.n == 62
        assert dolphins.m == 159

    def test_celegans_counts(self, celegans):
        assert celegans.n == 453
        assert celegans.m == 2025

    def test_karate_counts(self, karate):
        assert karate.n == 34
        assert karate.m == 78

    def test_adjacency_symmetric_and_sorted(self, dolphins):
        indptr, indices = dolphins._csr
        adjacency = [indices[s:e].tolist() for s, e in zip(indptr[:-1], indptr[1:])]
        assert adjacency == [list(nbrs) for nbrs in neighbors_of(dolphins)]
        for i, nbrs in enumerate(adjacency):
            assert nbrs == sorted(nbrs)
            for j in nbrs:
                assert i in adjacency[j]

    def test_degree_sum_is_twice_edges(self, dolphins):
        assert sum(dolphins.degrees()) == 2 * dolphins.m

    def test_round_trip(self, g14):
        reloaded = load_edge_list(io.StringIO(dump_edge_list(g14)))
        assert reloaded.labels == g14.labels
        assert reloaded.edges == g14.edges
        assert all(np.array_equal(a, b) for a, b in zip(reloaded._csr, g14._csr))


def labelled_edges(graph: Graph) -> set[frozenset[str]]:
    return {frozenset((graph.labels[u], graph.labels[v])) for u, v in graph.edges}


def dump_cases() -> list[Graph]:
    """The datasets, and seeded random graphs on odd labels with their edges
    shuffled, so their ids do not follow the order edge_array dumps them in."""
    rng = random.Random(20261019)
    names = ["é", "a,b", 'q"r', "x-1", "01", "1", "+1", "ü_z"] + [f"v{i}" for i in range(40)]
    graphs = [load_dataset(name) for name in dataset_names()]
    for _ in range(6):
        base = random_connected_graph(rng, rng.randrange(2, 40), 0.2)
        label = rng.sample(names, base.n)
        pairs = [(label[u], label[v]) for u, v in base.edges]
        rng.shuffle(pairs)
        graphs.append(Graph.from_edge_labels(pairs))
    return graphs


@pytest.mark.parametrize("graph", dump_cases(), ids=lambda g: f"n{g.n}m{g.m}")
def test_dump_round_trips_labels_and_labelled_edges(graph):
    text = dump_edge_list(graph)
    reloaded = load_edge_list(io.StringIO(text))
    assert sorted(reloaded.labels) == sorted(graph.labels)
    assert labelled_edges(reloaded) == labelled_edges(graph)
    assert reloaded.labels == tuple(dict.fromkeys(text.split()))  # ids by first appearance


@pytest.mark.parametrize(
    "graph, first",
    [
        (remove_vertices(Graph.from_edge_labels([("a", "b"), ("b", "c"), ("c", "d")]), ["b"]), "a"),
        (Graph.from_edge_labels([("a b", "c")]), "a b"),
        (Graph.from_edge_labels([("x", ""), ("", "y")]), ""),
        (Graph.from_edge_labels([("x", "y#z")]), "y#z"),
        (Graph.from_edge_labels([("x", "#")]), "#"),
        (Graph.from_edge_labels([("x", "y\n")]), "y\n"),
        (Graph.from_edge_labels([("ok", "a\tb"), ("a\tb", "c#")]), "a\tb"),
        (remove_vertices(Graph.from_edge_labels([("p", "q"), ("q", "r r")]), ["q"]), "p"),
    ],
)
def test_dump_refuses_what_edge_list_text_cannot_hold(graph, first):
    """An isolated vertex, or a label that does not read back as one token;
    the first such vertex by id is named."""
    with pytest.raises(GraphValidationError, match=re.escape(repr(first))):
        dump_edge_list(graph)


class TestConnectedComponents:
    def test_k3_single_component(self, k3):
        comps = connected_components(k3)
        assert len(comps) == 1
        assert comps[0] == {0, 1, 2}

    def test_two_disjoint_edges(self):
        g = Graph.from_edge_labels([("0", "1"), ("2", "3")])
        comps = connected_components(g)
        assert len(comps) == 2
        assert comps == [{0, 1}, {2, 3}]

    def test_components_sorted_by_smallest_member(self):
        g = Graph.from_edge_labels([("d", "c"), ("a", "b")])
        comps = connected_components(g)
        assert min(comps[0]) < min(comps[1])

    def test_celegans_minus_top_triangle_has_six_components(self, celegans):
        reduced = remove_vertices(celegans, ["147", "186", "408"])
        assert len(connected_components(reduced)) == 6

    def test_partition_properties_random(self):
        rng = random.Random(20240515)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(2, 24), extra_edge_prob=0.08)
            # knock out some edges to get several components
            keep = [e for e in g.edges if rng.random() < 0.6]
            if not keep:
                continue
            sub = Graph.from_edge_labels(
                [(g.labels[u], g.labels[v]) for u, v in keep]
            )
            comps = connected_components(sub)
            assert comps == components_by_bfs(sub)
            covered = set()
            for comp in comps:
                assert not (comp & covered)
                covered |= comp
            assert covered == set(range(sub.n))
            for u, v in sub.edges:  # no edge crosses components
                assert any(u in c and v in c for c in comps)


class TestEnumerateTriangles:
    def test_k3(self, k3):
        tris = enumerate_triangles(k3)
        assert tris.triangle_array.tolist() == [[0, 1, 2]]
        assert tris.count_per_vertex() == [1, 1, 1]

    def test_path_is_triangle_free(self, p3):
        assert len(enumerate_triangles(p3)) == 0

    def test_celegans_triangle_count(self, celegans_triangles):
        assert len(celegans_triangles) == 3284

    def test_matches_trace_oracle_on_random_graphs(self):
        rng = random.Random(777)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(3, 64))
            tris = enumerate_triangles(g)
            assert len(tris) == triangle_count_by_trace(g)
            assert list(map(tuple, tris.triangle_array.tolist())) == triangles_by_combinations(g)

    def test_incidence_consistency(self, celegans, celegans_triangles, g14, g14_triangles):
        for g, tris in ((celegans, celegans_triangles), (g14, g14_triangles)):
            incidence = incidence_by_loop(tris, g.n)
            assert sum(len(p) for p in incidence) == 3 * len(tris)
            assert sum(tris.count_per_vertex()) == 3 * len(tris)

    def test_incidence_and_counts_match_the_eager_build(self, celegans, g14):
        rng = random.Random(778)
        graphs = [random_connected_graph(rng, rng.randint(3, 40), 0.4) for _ in range(10)]
        graphs += [celegans, g14, Graph.from_edge_labels([("1", "2"), ("3", "4")])]
        for g in graphs:
            tris = enumerate_triangles(g)
            want = incidence_by_loop(tris, g.n)
            assert tris.count_per_vertex() == [len(pairs) for pairs in want]
            assert all(type(t) is int for t in tris.count_per_vertex())

    def test_canonical_order(self, celegans_triangles):
        tris = celegans_triangles.triangle_array.tolist()
        assert all(p < q < r for p, q, r in tris)
        assert list(tris) == sorted(tris)


class TestRemoveVertices:
    def test_k3_minus_one_is_k2(self, k3):
        g = remove_vertices(k3, ["3"])
        assert g.n == 2
        assert g.edges == ((0, 1),)
        assert g.labels == ("1", "2")

    def test_g14_minus_hub_leaves_seven_components(self, g14):
        reduced = remove_vertices(g14, ["8"])
        comps = connected_components(reduced)
        assert len(comps) == 7
        sizes = sorted(len(c) for c in comps)
        assert sizes == [1, 1, 1, 1, 1, 1, 7]

    def test_celegans_minus_top_cycle_has_three_components(self, celegans):
        reduced = remove_vertices(celegans, ["56", "153", "217"])
        assert len(connected_components(reduced)) == 3

    def test_unknown_label(self, k3):
        with pytest.raises(GraphValidationError, match="unknown"):
            remove_vertices(k3, ["99"])

    def test_labels_preserved(self, g14):
        reduced = remove_vertices(g14, ["1"])
        assert "1" not in reduced.labels
        assert set(reduced.labels) == set(g14.labels) - {"1"}

    def test_removing_everything_rejected(self, k3):
        with pytest.raises(GraphValidationError, match="empty"):
            remove_vertices(k3, ["1", "2", "3"])

    def test_isolated_survivors_allowed(self, k3):
        reduced = remove_vertices(k3, ["1", "2"])
        assert reduced.n == 1
        assert reduced.m == 0
        assert connected_components(reduced) == [{0}]


class TestDegreeTriangleStats:
    def test_k3_uniform(self, k3):
        stats = degree_and_triangle_stats(k3, enumerate_triangles(k3))
        for label in "123":
            assert stats.row(label) == (2, 1, 2)

    def test_g14_vertex4(self, g14, g14_triangles):
        stats = degree_and_triangle_stats(g14, g14_triangles)
        assert stats.row("4") == (3, 0, 2)
        with pytest.raises(KeyError, match="no vertex labeled '04'"):
            stats.row("04")

    def test_karate_triangle_counts(self, karate):
        stats = degree_and_triangle_stats(karate, enumerate_triangles(karate))
        t = {lab: stats.row(lab)[1] for lab in ("20", "31", "12", "25")}
        assert t == {"20": 1, "31": 3, "12": 0, "25": 1}

    def test_neighbor_triangle_sum_definition(self):
        rng = random.Random(31337)
        g = random_connected_graph(rng, 18)
        tris = enumerate_triangles(g)
        stats = degree_and_triangle_stats(g, tris)
        t = tris.count_per_vertex()
        for i in range(g.n):
            assert stats.neighbor_triangles[i] == sum(t[j] for j in neighbors_of(g)[i])


def shuffled_and_relabelled(graph: Graph, rng: random.Random) -> tuple[Graph, dict[str, str]]:
    """graph rebuilt from its edge lines in a seeded random order, each line's
    ends in a random order, over a random relabelling of its vertices; the
    rebuilt graph and the new label of every old one."""
    new_labels = [f"v{i}" for i in range(graph.n)]
    rng.shuffle(new_labels)
    rename = dict(zip(graph.labels, new_labels))
    lines = []
    for u, v in graph.edges:
        ends = [rename[graph.labels[u]], rename[graph.labels[v]]]
        rng.shuffle(ends)
        lines.append(" ".join(ends) + "\n")
    rng.shuffle(lines)
    return load_edge_list(io.StringIO("".join(lines))), rename


@pytest.mark.parametrize("seed", range(8))
def test_triangle_sums_survive_an_edge_shuffle_and_a_relabelling(seed):
    """Triangle centrality and the D/T/NT rows of every vertex, found by
    label, do not depend on vertex ids or on the order of the edge lines."""
    rng = random.Random(seed)
    if seed == 0:
        g = load_dataset("karate")
    else:
        g = random_connected_graph(rng, rng.randint(5, 60), rng.choice((0.1, 0.3)))
    h, rename = shuffled_and_relabelled(g, rng)
    assert sorted(rename.values()) == sorted(h.labels) and h.m == g.m
    tg, th = enumerate_triangles(g), enumerate_triangles(h)
    assert len(tg) == len(th) > 0
    tc_g, tc_h = triangle_centrality(g, tg), triangle_centrality(h, th)
    stats_g, stats_h = degree_and_triangle_stats(g, tg), degree_and_triangle_stats(h, th)
    for label in g.labels:
        assert tc_h.score_of(rename[label]).hex() == tc_g.score_of(label).hex()
        assert stats_h.row(rename[label]) == stats_g.row(label)


def test_is_connected(k3):
    assert is_connected(k3)
    assert not is_connected(Graph.from_edge_labels([("a", "b"), ("c", "d")]))


def test_component_partition_runs_once_per_graph(monkeypatch):
    """Six atec solves on one Graph share one component partition, and every
    caller gets its own copy of the cached partition."""
    partition, partitioned = tricent.graph._partition, []

    def counted(graph):
        partitioned.append(graph)
        return partition(graph)

    monkeypatch.setattr(tricent.graph, "_partition", counted)
    g = load_dataset("karate")  # a fresh Graph: nothing cached yet
    triangles = enumerate_triangles(g)
    for alpha in (1.0, 0.8, 0.6, 0.4, 0.2, 0.01):
        atec(g, alpha, triangles=triangles)
    assert partitioned == [g]
    connected_components(g)[0].clear()
    assert connected_components(g) == [set(range(g.n))] and is_connected(g)
    assert partitioned == [g]


def test_triangles_are_listed_once_per_graph(monkeypatch):
    """A Graph lists its triangles on first use and hands every caller that
    one set; a graph made by removal lists its own."""
    listing, listed = tricent.graph._list_triangles, []

    def counted(graph):
        listed.append(graph)
        return listing(graph)

    monkeypatch.setattr(tricent.graph, "_list_triangles", counted)
    g = load_dataset("karate")  # a fresh Graph: nothing cached yet
    assert enumerate_triangles(g) is enumerate_triangles(g)
    assert listed == [g]
    reduced = remove_vertices(g, ["1"])
    tris = enumerate_triangles(reduced)
    assert listed == [g, reduced] and tris is not enumerate_triangles(g)
    assert list(map(tuple, tris.triangle_array.tolist())) == triangles_by_combinations(reduced)
    assert enumerate_triangles(reduced) is tris and len(listed) == 2


@pytest.mark.parametrize("alphas", [(0.5,), (1.0, 0.8, 0.6, 0.4, 0.2, 0.01)])
def test_per_component_sweep_builds_each_subgraph_once(monkeypatch, alphas):
    """A disconnected graph keeps its component subgraphs, so a per-component
    sweep finds each partition and lists each triangle set once, whatever
    the alphas."""
    partition, listing = tricent.graph._partition, tricent.graph._list_triangles
    partitioned, listed = [], []

    def counted_partition(graph):
        partitioned.append(graph)
        return partition(graph)

    def counted_listing(graph):
        listed.append(graph)
        return listing(graph)

    monkeypatch.setattr(tricent.graph, "_partition", counted_partition)
    monkeypatch.setattr(tricent.graph, "_list_triangles", counted_listing)
    g = Graph.from_edge_labels([("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f")])
    reports = [atec_per_component(g, alpha) for alpha in alphas]
    subgraphs = g._component_subgraphs
    assert [sub.labels for sub in subgraphs] == [("a", "b", "c"), ("d", "e", "f")]
    assert partitioned == [g, *subgraphs]  # the graph's, then one per subgraph
    assert listed == list(subgraphs)
    assert all(g._component_subgraphs is subgraphs for _ in reports)


def test_connected_graph_does_not_keep_itself_as_a_subgraph():
    g = load_dataset("karate")
    atec_per_component(g, 0.5)
    assert "_component_subgraphs" not in vars(g)


def graph_on(rng: random.Random, n: int, pairs: list[tuple[int, int]]) -> Graph:
    """The graph on n vertices with the edges pairs, its ids shuffled."""
    perm = list(range(n))
    rng.shuffle(perm)
    ends = np.array([(perm[a], perm[b]) for a, b in pairs], dtype=np.int64).reshape(-1, 2)
    return tricent.graph._build_graph(tuple(map(str, range(n))), ends[:, 0], ends[:, 1])


def partition_cases() -> list[Graph]:
    rng = random.Random(20261019)
    graphs = []
    for _ in range(12):  # sparse random graphs: isolated vertices and small components
        n = rng.randrange(1, 80)
        graphs.append(graph_on(rng, n, [e for e in combinations(range(n), 2) if rng.random() < 1.5 / n]))
    for _ in range(6):  # many components of one to three vertices
        pairs, n = [], 0
        for _ in range(rng.randrange(20, 300)):
            size = rng.randint(1, 3)
            pairs += [(n, n + 1), (n + 1, n + 2), (n, n + 2)][: (0, 1, rng.choice((2, 3)))[size - 1]]
            n += size
        graphs.append(graph_on(rng, n, pairs))
    for n in (1, 2, 3, 60, 2000):  # paths and trees
        graphs.append(graph_on(rng, n, [(v - 1, v) for v in range(1, n)]))
        graphs.append(graph_on(rng, n, [(rng.randrange(v), v) for v in range(1, n)]))
    return graphs


@pytest.mark.parametrize("graph", partition_cases(), ids=lambda g: f"n{g.n}m{g.m}")
def test_partition_matches_bfs(graph):
    """The array partition: read-only ascending int64 id arrays, ordered by
    smallest member, equal to the plain BFS's components."""
    comps = graph._components
    assert [c.tolist() for c in comps] == [sorted(c) for c in components_by_bfs(graph)]
    assert all(c.dtype == np.int64 and not c.flags.writeable for c in comps)


def test_partition_cases_cover_each_shape():
    sizes = [[len(c) for c in g._components] for g in partition_cases()]
    assert any(1 in s and len(s) > 1 for s in sizes)  # an isolated vertex beside others
    assert any(len(s) > 100 and max(s) <= 3 for s in sizes)
    assert any(s == [2000] for s in sizes)


def test_hot_paths_build_no_tuple_view(monkeypatch):
    """Loading, listing, a six-alpha atec with its importance rankings,
    triangle centrality, betweenness, removal, and per-component solves of a
    disconnected graph read the index arrays only: no Graph made on the way
    builds its edges tuples."""
    made = []

    def recording(init):
        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        return record

    for cls in (Graph, TriangleSet):
        monkeypatch.setattr(cls, "__init__", recording(cls.__init__))
    karate = load_edge_list(dataset_path("karate"))
    triangles = enumerate_triangles(karate)
    for alpha in (1.0, 0.8, 0.6, 0.4, 0.2, 0.01):
        triangle_importance(karate, triangles, atec(karate, alpha, triangles=triangles))
    text = dataset_path("karate").read_text() + "a b\nb c\nc a\nc d\ne e\n"
    with pytest.warns(DuplicateEdgeWarning):
        split = load_edge_list(io.StringIO(text), dedupe=True)  # e is isolated
    for graph in (karate, split):
        triangle_centrality(graph, enumerate_triangles(graph))
        betweenness_centrality(graph)
    removal_experiment(karate, ["1", "34"])
    removal_experiment(split, ["c"])
    for alpha in (1.0, 0.5, 0.01):
        atec_per_component(split, alpha)
    assert len(split._components) == 3
    # karate, split, two removals, split's three subgraphs; and their triangles
    assert [type(x) for x in made].count(Graph) == 7
    assert [type(x) for x in made].count(TriangleSet) == 5
    assert [x for x in made if "edges" in vars(x)] == []


# one broken invariant each, and the message of the check that must catch it
BREAKS = {
    "int32": "must be an int64 array",
    "float": "must be an int64 array",
    "list": "must be an int64 array",
    "flat": "must be an int64 array",
    "extra column": "must be an int64 array",
    "repeated id": "does not strictly ascend",
    "descending row": "does not strictly ascend",
    "negative id": "outside",
    "id n": "outside",
    "repeated row": "not sorted and unique",
    "swapped rows": "not sorted and unique",
}


def break_rows(rng: random.Random, rows: np.ndarray, n: int, how: str):
    """A copy of valid index rows with one invariant broken."""
    rows = rows.copy()
    i, j = sorted(rng.sample(range(len(rows)), 2))
    if how == "int32":
        return rows.astype(np.int32)
    if how == "float":
        return rows.astype(float)
    if how == "list":
        return rows.tolist()
    if how == "flat":
        return rows.ravel()
    if how == "extra column":
        return np.concatenate([rows, rows[:, -1:] + 1], axis=1)
    if how == "repeated id":
        rows[i, 1] = rows[i, 0]
    elif how == "descending row":
        rows[i] = rows[i, ::-1]
    elif how == "negative id":
        rows[0, 0] = -1
    elif how == "id n":
        rows[i, -1] = n
    elif how == "repeated row":
        rows = np.insert(rows, i, rows[i], axis=0)
    elif how == "swapped rows":
        rows[[i, j]] = rows[[j, i]]
    return rows


@pytest.mark.parametrize("how", BREAKS)
@pytest.mark.parametrize("seed", range(4))
def test_constructors_refuse_broken_index_arrays(seed, how):
    """Graph and TriangleSet accept the arrays the library builds, and raise
    GraphValidationError, from the check named, once one invariant breaks."""
    rng = random.Random(1600 + seed)
    graph = random_connected_graph(rng, rng.randrange(12, 60), rng.choice((0.2, 0.5)))
    triangles = enumerate_triangles(graph)
    assert len(triangles) >= 2
    Graph(labels=graph.labels, edge_array=graph.edge_array.copy())
    TriangleSet(triangle_array=triangles.triangle_array.copy(), n=graph.n)
    with pytest.raises(GraphValidationError, match=BREAKS[how]):
        Graph(labels=graph.labels, edge_array=break_rows(rng, graph.edge_array, graph.n, how))
    with pytest.raises(GraphValidationError, match=BREAKS[how]):
        TriangleSet(
            triangle_array=break_rows(rng, triangles.triangle_array, graph.n, how), n=graph.n
        )


def test_constructors_accept_empty_arrays_and_refuse_unsorted_edges():
    assert Graph(labels=("a",), edge_array=np.empty((0, 2), dtype=np.int64)).m == 0
    assert len(TriangleSet(triangle_array=np.empty((0, 3), dtype=np.int64), n=0)) == 0
    # the rows of a triangle listed with each edge as (larger id, smaller id)
    with pytest.raises(GraphValidationError, match="does not strictly ascend"):
        Graph(labels=("a", "b", "c"), edge_array=np.array([[1, 0], [2, 1], [2, 0]]))


# What a Graph may keep besides its labels and edge_array: array caches only.
ARRAY_CACHES = {
    "_label_to_id",
    "_csr",
    "_components",
    "_triangles",
    "_component_subgraphs",
    "_operator_layout",
}


@pytest.mark.parametrize("connected", (True, False))
def test_library_paths_build_no_tuple_view(connected):
    """Every public entry point, run on a fresh graph, leaves only array
    caches on it and on its component subgraphs: no library path builds the
    Graph.edges view."""
    pairs = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("e", "c")]
    if not connected:
        pairs += [("x", "y"), ("y", "z"), ("x", "z"), ("z", "w")]
    graph = Graph.from_edge_labels(pairs)
    assert is_connected(graph) is connected
    triangles = enumerate_triangles(graph)
    per_component = atec_per_component(graph, 0.5)
    for measure in (
        degree_centrality,
        subgraph_centrality,
        betweenness_centrality,
        lambda g: betweenness_centrality(g, exact=True),
        lambda g: triangle_centrality(g, triangles),
    ):
        measure(graph)
    build_operator(graph, triangles, 0.5)
    triangle_importance(graph, triangles, per_component)
    removal_experiment(graph, ["c"])
    degree_and_triangle_stats(graph, triangles)
    dump_edge_list(graph)
    needs_connected = (
        lambda: atec(graph, 0.5),
        lambda: eigenvector_centrality(graph),
        lambda: cycle_index_fiedler(graph, triangles),
    )
    for run in needs_connected:
        if connected:
            run()
        else:
            with pytest.raises(NotConnectedError):
                run()
    assert "_operator_layout" in vars(graph)
    subgraphs = vars(graph).get("_component_subgraphs", ())
    assert len(subgraphs) == (0 if connected else 2)
    for g in (graph, *subgraphs):
        assert set(vars(g)) - {"labels", "edge_array"} <= ARRAY_CACHES
