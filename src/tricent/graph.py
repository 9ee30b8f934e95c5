"""Undirected simple graphs: ingestion, triangles, components, removal.

Vertices carry arbitrary string labels externally and contiguous 0-based ids
internally. Graph and TriangleSet instances are immutable once built, so they
are safe to share across threads; their int64 index arrays (Graph.edge_array,
TriangleSet.triangle_array) are read-only. A Graph finds its connected
components and lists its triangles on first use and keeps both: every
connectivity check reads that one partition, and every enumerate_triangles
call on it returns that one TriangleSet. It keeps, on first use too, the
alpha-free entry layout of its alpha-triangle operator (tensor), the place
of each label in label order (for triangle rankings) and, when disconnected,
the subgraph of each component, so an alpha sweep does the per-graph work
once.

Every graph the library makes, from label pairs, from edge-list text, by
vertex removal or as a connected component, comes from one array builder:
the callers intern labels and validate their input, and the builder sorts
the int64 arc keys once to produce edges, adjacency and edge_array.

Triangles are listed in numpy, without a Python loop per vertex: each edge
is oriented from its lower-degree end to its higher-degree end, which leaves
every vertex at most sqrt(2m) out-arcs, and each pair of arcs leaving one
vertex (a wedge) is checked for its closing edge by a binary search in the
sorted arc keys. Wedges are checked in fixed-size chunks, so the listing's
temporaries stay bounded however dense the graph (_triangle_rows).
"""

from __future__ import annotations

import io
import warnings
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from .report import label_positions


class EdgeListParseError(ValueError):
    """A line of edge-list text could not be parsed."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GraphValidationError(ValueError):
    """Input violates a structural requirement (self-loop, empty graph, ...)."""


class DuplicateEdgeWarning(UserWarning):
    """Raised (as a warning) when dedupe drops repeated or self-loop lines."""


def _readonly_index_array(rows: tuple[tuple[int, ...], ...], width: int) -> np.ndarray:
    """rows as a read-only (len(rows), width) int64 array."""
    arr = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=len(rows) * width)
    arr = arr.reshape(len(rows), width)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph.

    labels[i] is the external label of internal vertex i; adjacency[i] is the
    sorted tuple of neighbors of i; edges holds every edge once as (i, j) with
    i < j, sorted.
    """

    labels: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]
    _label_to_id: dict = field(init=False, repr=False)

    def __post_init__(self):
        index = {lab: i for i, lab in enumerate(self.labels)}
        if len(index) != len(self.labels):
            raise GraphValidationError("labels are not unique")
        object.__setattr__(self, "_label_to_id", index)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_array(self) -> np.ndarray:
        """edges as a read-only (m, 2) int64 array; the builder stores it."""
        return _readonly_index_array(self.edges, 2)

    @cached_property
    def _components(self) -> tuple[tuple[int, ...], ...]:
        """The connected components as ascending vertex ids, ordered by
        smallest member; one BFS per component, run on first use."""
        parent = [-2] * self.n
        return tuple(
            tuple(sorted(_bfs(self.adjacency, root, parent)))
            for root in range(self.n)
            if parent[root] == -2
        )

    @cached_property
    def _triangles(self) -> "TriangleSet":
        """The graph's triangles, listed on first use (_list_triangles)."""
        return _list_triangles(self)

    @cached_property
    def _label_positions(self) -> np.ndarray:
        """label_positions(labels) as a read-only array, sorted on first use:
        the place of each vertex's label in label order."""
        pos = label_positions(self.labels)
        pos.setflags(write=False)
        return pos

    @cached_property
    def _component_subgraphs(self) -> tuple["Graph", ...]:
        """The induced subgraph of every component, in _components order,
        built on first use, so each keeps its own triangles and operator
        layout. Read only on a disconnected graph: a connected one is its
        own component, and keeping itself here would make a reference cycle."""
        return tuple(_induced(self, np.array(comp, dtype=np.int64)) for comp in self._components)

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.adjacency]

    def id_of(self, label: str) -> int:
        try:
            return self._label_to_id[label]
        except KeyError:
            raise GraphValidationError(f"unknown vertex label {label!r}") from None

    def has_edge(self, i: int, j: int) -> bool:
        a = self.adjacency[i]
        pos = bisect_left(a, j)
        return pos < len(a) and a[pos] == j

    @staticmethod
    def from_edge_labels(pairs: Iterable[tuple[str, str]]) -> "Graph":
        """Build a graph from (label, label) pairs, ids in first-appearance order."""
        index: dict[str, int] = {}
        ends: list[int] = []
        for a, b in pairs:
            u, v = index.setdefault(a, len(index)), index.setdefault(b, len(index))
            if u == v:
                raise GraphValidationError(f"self-loop at vertex {a!r}")
            ends += (u, v)
        if not index:
            raise GraphValidationError("empty graph")
        u, v = np.array(ends, dtype=np.int64).reshape(-1, 2).T
        return _build_graph(tuple(index), u, v)


def _build_graph(labels: tuple[str, ...], u: np.ndarray, v: np.ndarray) -> Graph:
    """The graph on labels with an edge {u[e], v[e]} per e; repeats merge.

    u and v are int64 id arrays with u[e] != v[e]. One sort of the int64 arc
    keys a*n + b, both orientations of every edge, gives the adjacency (arcs
    grouped by a, neighbors b ascending) and the sorted edge list (the arcs
    with a < b). Every Graph in the library is made here.
    """
    n = len(labels)
    arcs = np.sort(np.concatenate([u * n + v, v * n + u]))
    # drop repeats by hand: np.unique would import numpy.ma into every CLI run
    a, b = np.divmod(arcs[np.diff(arcs, prepend=-1) != 0], n)
    starts = np.searchsorted(a, np.arange(n + 1)).tolist()
    ids = np.arange(n).astype(object)  # one int object per vertex, shared by all tuples
    neighbors = ids[b].tolist()
    forward = a < b
    edge_array = np.stack([a[forward], b[forward]], axis=1)
    edge_array.setflags(write=False)
    graph = Graph(
        labels=labels,
        adjacency=tuple(tuple(neighbors[s:e]) for s, e in zip(starts, starts[1:])),
        edges=tuple(zip(ids[edge_array[:, 0]].tolist(), ids[edge_array[:, 1]].tolist())),
    )
    vars(graph)["edge_array"] = edge_array  # fill the cached property
    return graph


def _induced(graph: Graph, keep: np.ndarray) -> Graph:
    """Subgraph induced by the ascending vertex ids keep, relabelled 0..len-1."""
    new_id = np.full(graph.n, -1, dtype=np.int64)
    new_id[keep] = np.arange(len(keep))
    ends = new_id[graph.edge_array]
    ends = ends[(ends >= 0).all(axis=1)]
    return _build_graph(tuple(graph.labels[i] for i in keep.tolist()), ends[:, 0], ends[:, 1])


def load_edge_list(source: str | Path | TextIO, *, dedupe: bool = False) -> Graph:
    """Parse edge-list text into a Graph.

    Every non-comment line holds two whitespace-separated vertex labels;
    ``#`` starts a comment (whole-line or trailing). Labels are mapped to
    0-based internal ids in first-appearance order.

    With dedupe=True, repeated edges and self-loop lines are skipped and
    reported through a DuplicateEdgeWarning; otherwise both are errors. Either
    way the vertices of a skipped line keep their ids, and the earliest bad
    line is the one reported.
    """
    if isinstance(source, (str, Path)):
        stream: TextIO = io.StringIO(Path(source).read_text())
    else:
        stream = source

    index: dict[str, int] = {}
    ends: list[int] = []
    linenos = array("q")  # no int object kept per line
    parse_error = None
    for lineno, raw in enumerate(stream, start=1):
        tokens = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if len(tokens) != 2:
            if not tokens:
                continue
            text = raw.split("#", 1)[0].strip()
            parse_error = EdgeListParseError(
                f"expected two labels, got {len(tokens)}: {text!r}", lineno
            )
            break
        ends += (index.setdefault(tokens[0], len(index)), index.setdefault(tokens[1], len(index)))
        linenos.append(lineno)

    labels = tuple(index)
    u, v = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    keys = np.minimum(u, v) * len(labels) + np.maximum(u, v)
    loops = u == v
    # a line repeats an edge when an earlier line has its key; a stable sort
    # puts the earliest line of every key first
    order = np.argsort(keys, kind="stable")
    repeated = np.zeros(len(keys), dtype=bool)
    repeated[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    duplicates = repeated & ~loops
    bad = loops | duplicates

    if not dedupe and bad.any():
        e = int(np.argmax(bad))
        first, second = labels[u[e]], labels[v[e]]
        if loops[e]:
            raise GraphValidationError(f"line {linenos[e]}: self-loop at vertex {first!r}")
        raise GraphValidationError(
            f"line {linenos[e]}: duplicate edge {first!r} -- {second!r}"
        )
    if parse_error is not None:
        raise parse_error
    if not labels:
        raise GraphValidationError("empty graph: no edges or vertices found")
    if bad.any():
        parts = []
        if duplicates.any():
            parts.append(f"{np.count_nonzero(duplicates)} duplicate edge(s)")
        if loops.any():
            parts.append(f"{np.count_nonzero(loops)} self-loop line(s)")
        warnings.warn("dropped " + " and ".join(parts), DuplicateEdgeWarning, stacklevel=2)
    return _build_graph(labels, u[~bad], v[~bad])


def dump_edge_list(graph: Graph) -> str:
    """Serialize back to edge-list text; re-loading yields the same graph."""
    return "".join(
        f"{graph.labels[u]} {graph.labels[v]}\n" for u, v in graph.edges
    )


def _bfs(adjacency: tuple[tuple[int, ...], ...], root: int, parent: list[int]) -> list[int]:
    """Breadth-first search from root over the vertices with parent -2.

    Sets parent[root] = -1 and, for every vertex it reaches, parent[w] to the
    vertex it was reached from; frontiers are scanned in order, neighbours
    ascending. Returns the reached vertices in visit order, root first.
    """
    parent[root] = -1
    reached = [root]
    frontier = [root]
    while frontier:
        nxt: list[int] = []
        for u in frontier:
            for w in adjacency[u]:
                if parent[w] == -2:
                    parent[w] = u
                    nxt.append(w)
        reached += nxt
        frontier = nxt
    return reached


def connected_components(graph: Graph) -> list[set[int]]:
    """Partition vertex ids by reachability, ordered by smallest member id."""
    return [set(comp) for comp in graph._components]


def is_connected(graph: Graph) -> bool:
    return len(graph._components) == 1


@dataclass(frozen=True, eq=False)
class TriangleSet:
    """All 3-cliques of a graph on n vertices, canonically ordered.

    triangles holds each clique once as (p, q, r) with p < q < r, sorted.
    """

    triangles: tuple[tuple[int, int, int], ...]
    n: int

    def __len__(self) -> int:
        return len(self.triangles)

    @cached_property
    def triangle_array(self) -> np.ndarray:
        """triangles as a read-only (T, 3) int64 array; the lister stores it,
        and a TriangleSet made any other way builds it on first use."""
        return _readonly_index_array(self.triangles, 3)

    def count_per_vertex(self) -> list[int]:
        """T(i): number of triangles containing each vertex."""
        return np.bincount(self.triangle_array.ravel(), minlength=self.n).tolist()


def enumerate_triangles(graph: Graph) -> TriangleSet:
    """The graph's 3-cliques, listed on first use; every caller shares the
    one immutable TriangleSet."""
    return graph._triangles


# Wedges _triangle_rows checks at a time: its per-chunk temporaries stay
# within a few MB however dense the graph.
_WEDGE_CHUNK = 1 << 15


def _list_triangles(graph: Graph) -> TriangleSet:
    """The graph's triangles, canonically sorted, so the result does not
    depend on the order _triangle_rows finds them in; the sorted (T, 3)
    array fills triangle_array. The wedge arrays are freed by then, so they
    add nothing to the memory the sort and the tuples take."""
    n = graph.n
    tri = _triangle_rows(graph)
    tri.sort(axis=1)
    # rows by (p, q, r): by r, then stably by p * n + q; the one key
    # (p * n + q) * n + r would overflow int64 past 2**21 vertices
    tri = tri[np.argsort(tri[:, 2])]
    tri = tri[np.argsort(tri[:, 0] * n + tri[:, 1], kind="stable")]
    tri.setflags(write=False)
    ids = np.arange(n).astype(object)  # one int object per vertex, shared by all tuples
    triangles = TriangleSet(triangles=tuple(zip(*ids[tri.T].tolist())), n=n)
    vars(triangles)["triangle_array"] = tri  # fill the cached property
    return triangles


def _triangle_rows(graph: Graph) -> np.ndarray:
    """List every 3-clique once by checking the wedges of an oriented graph.

    Vertices are ranked by non-increasing degree, ties by id, and every edge
    becomes an arc from its later-ranked end to its earlier one (the degree
    order of Chiba & Nishizeki, 1985). The d heads of a vertex's out-arcs have
    degree at least d each, so d * d <= 2m: no vertex has more than sqrt(2m)
    out-arcs. A wedge is a pair of arcs leaving one vertex; a triangle has
    exactly one, at its last-ranked corner, and it is closed by the arc
    between the other two corners. The wedges are numbered arc by arc and
    checked _WEDGE_CHUNK at a time, each closing arc looked up in the sorted
    arc keys. Returns a (T, 3) int64 array with one row of vertex ids per
    triangle, in the order the wedges find them.
    """
    n = graph.n
    by_rank = np.argsort(-np.bincount(graph.edge_array.ravel(), minlength=n), kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[by_rank] = np.arange(n)
    ends = rank[graph.edge_array]
    # keys tail * n + head: sorted, the arcs group by tail, heads ascending
    keys = np.sort(ends.max(axis=1) * n + ends.min(axis=1))
    tail, head = np.divmod(keys, n)
    m = len(keys)
    # arc a pairs with each later arc of its tail, a + 1 .. last of the tail
    pairs = np.cumsum(np.bincount(tail, minlength=n))[tail] - np.arange(1, m + 1)
    wedge_end = np.cumsum(pairs)
    wedge_start = wedge_end - pairs
    # wedge w of arc a pairs it with arc w + shift[a]
    shift = np.arange(1, m + 1) - wedge_start
    keys = np.append(keys, n * n)  # a sentinel above every key keeps lookups in range
    found = [np.empty((0, 3), dtype=np.int64)]
    total = int(wedge_end[-1]) if m else 0
    for w0 in range(0, total, _WEDGE_CHUNK):
        w1 = min(w0 + _WEDGE_CHUNK, total)
        a0, a1 = np.searchsorted(wedge_end, [w0, w1 - 1], side="right").tolist()
        counts = pairs[a0 : a1 + 1].copy()
        counts[-1] = w1 - wedge_start[a1]
        counts[0] -= w0 - wedge_start[a0]
        first = np.repeat(np.arange(a0, a1 + 1), counts)
        second = np.arange(w0, w1) + shift[first]
        closing = head[second] * n + head[first]
        closed = keys[np.searchsorted(keys, closing)] == closing
        corners = (tail[first[closed]], head[second[closed]], head[first[closed]])
        found.append(by_rank[np.stack(corners, axis=1)])
    return np.concatenate(found)


def remove_vertices(graph: Graph, labels: Iterable[str]) -> Graph:
    """Induced subgraph on the surviving vertices; their labels are kept."""
    survives = np.ones(graph.n, dtype=bool)
    survives[[graph.id_of(lab) for lab in labels]] = False
    if not survives.any():
        raise GraphValidationError("removal would leave an empty graph")
    return _induced(graph, np.flatnonzero(survives))


@dataclass(frozen=True, eq=False)
class DegreeTriangleStats:
    """Per-vertex degree D(i), triangle count T(i), and neighbor triangle sum
    NT(i) = Σ_{j adjacent to i} T(j)."""

    labels: tuple[str, ...]
    degree: tuple[int, ...]
    triangle_count: tuple[int, ...]
    neighbor_triangles: tuple[int, ...]

    @cached_property
    def _label_to_id(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def row(self, label: str) -> tuple[int, int, int]:
        try:
            i = self._label_to_id[label]
        except KeyError:
            raise KeyError(f"no vertex labeled {label!r}") from None
        return (self.degree[i], self.triangle_count[i], self.neighbor_triangles[i])


def degree_and_triangle_stats(graph: Graph, triangles: TriangleSet) -> DegreeTriangleStats:
    """Compute D(i), T(i), NT(i) for every vertex of the graph."""
    _, nt, _ = _triangle_neighbor_sums(graph, triangles)
    return DegreeTriangleStats(
        labels=graph.labels,
        degree=tuple(graph.degrees()),
        triangle_count=tuple(triangles.count_per_vertex()),
        neighbor_triangles=tuple(nt.astype(np.int64).tolist()),
    )


def _triangle_neighbor_sums(
    graph: Graph, triangles: TriangleSet
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, nt, inner) as float64 arrays: per vertex v, its triangle count
    T(v), NT(v) and the part of NT(v) from the neighbours sharing a triangle
    with v. An edge is in a triangle exactly when its key u * n + v, u < v,
    is one of the triangles' (p, q), (p, r) or (q, r) keys; a binary search
    of the (ascending) edge keys in those keys, sorted, finds them. Every sum
    is an integer of at most 3T, so the float sums are exact.
    """
    n = graph.n
    tri = triangles.triangle_array
    t = np.bincount(tri.ravel(), minlength=n).astype(float)
    edges = graph.edge_array
    keys = edges[:, 0] * n + edges[:, 1]
    # a sentinel above every key keeps lookups in range, with no triangle too
    tri_keys = np.append(np.sort((tri[:, [0, 0, 1]] * n + tri[:, [1, 2, 2]]).ravel()), n * n)
    shared = tri_keys[np.searchsorted(tri_keys, keys)] == keys
    end, other = np.concatenate([edges, edges[:, ::-1]]).T  # each edge from both ends
    nt = np.bincount(end, t[other], minlength=n)
    inner = np.bincount(end, t[other] * np.tile(shared, 2), minlength=n)
    return t, nt, inner
