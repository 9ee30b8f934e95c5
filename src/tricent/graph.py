"""Undirected simple graphs: ingestion, triangles, components, removal.

Vertices carry arbitrary string labels externally and contiguous 0-based ids
internally. Graph and TriangleSet instances are immutable once built, so they
are safe to share across threads. Each stores one read-only int64 index
array (Graph.edge_array, TriangleSet.triangle_array), and every library path
reads those arrays or arrays derived from them. The one tuple form left,
Graph.edges, is built only when a caller reads it. A Graph finds its
connected components and lists its triangles on first use and keeps both:
every connectivity check reads that one partition, and every
enumerate_triangles call on it returns that one TriangleSet. It keeps, on
first use too, its neighbours in CSR form (for betweenness, eigenvector
centrality and the Fiedler vector), the alpha-free entry layout of its
alpha-triangle operator (tensor) and, when disconnected, the subgraph of
each component, so an alpha sweep does the per-graph work once.

Every graph the library makes, from label pairs, from edge-list text, by
vertex removal or as a connected component, comes from one array builder:
the callers intern labels and validate their input, and the builder sorts
the int64 edge keys once to produce edge_array.

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
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np


class EdgeListParseError(ValueError):
    """A line of edge-list text could not be parsed."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GraphValidationError(ValueError):
    """Input violates a structural requirement (self-loop, empty graph, ...)."""


class DuplicateEdgeWarning(UserWarning):
    """Raised (as a warning) when dedupe drops repeated or self-loop lines."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable undirected simple graph.

    labels[i] is the external label of internal vertex i; edge_array holds
    every edge once as a row (i, j), i < j, rows sorted, in a read-only int64
    array. edges is the same rows as tuples of Python ints, built when first
    read; no library path reads it.
    The constructor raises GraphValidationError for repeated labels or an
    edge_array that breaks this form.
    """

    labels: tuple[str, ...]
    edge_array: np.ndarray
    _label_to_id: dict = field(init=False, repr=False)

    def __post_init__(self):
        index = {lab: i for i, lab in enumerate(self.labels)}
        if len(index) != len(self.labels):
            raise GraphValidationError("labels are not unique")
        _check_rows(self.edge_array, 2, len(self.labels), "edge_array")
        object.__setattr__(self, "_label_to_id", index)
        self.edge_array.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices): v's neighbours, ascending, are indices[indptr[v]:indptr[v + 1]]."""
        n = self.n
        u, v = self.edge_array.T
        arcs = np.sort(np.concatenate([u * n + v, v * n + u]))
        indptr = np.searchsorted(arcs, np.arange(n + 1) * n)
        return indptr, arcs % n

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def _components(self) -> tuple[np.ndarray, ...]:
        """The connected components as read-only ascending id arrays,
        ordered by smallest member; found on first use (_partition)."""
        return _partition(self)

    @cached_property
    def _triangles(self) -> "TriangleSet":
        """The graph's triangles, listed on first use (_list_triangles)."""
        return _list_triangles(self)

    @cached_property
    def _component_subgraphs(self) -> tuple["Graph", ...]:
        """The induced subgraph of every component, in _components order,
        built on first use, so each keeps its own triangles and operator
        layout. Read only on a disconnected graph: a connected one is its
        own component, and keeping itself here would make a reference cycle."""
        return tuple(_induced(self, comp) for comp in self._components)

    def degrees(self) -> list[int]:
        return np.diff(self._csr[0]).tolist()

    def id_of(self, label: str) -> int:
        try:
            return self._label_to_id[label]
        except KeyError:
            raise GraphValidationError(f"unknown vertex label {label!r}") from None

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

    u and v are int64 id arrays with u[e] != v[e]. One sort of the int64
    edge keys min * n + max gives the edge rows in order, repeats adjacent.
    Every Graph in the library is made here.
    """
    n = len(labels)
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    # drop repeats by hand: np.unique would import numpy.ma into every CLI run
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return Graph(labels=labels, edge_array=np.stack(np.divmod(keys, n), axis=1))


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
    """Serialize to edge-list text, one "label label" line per edge row.

    load_edge_list reads the text back to a graph with the same labels and
    the same labelled edges; its ids follow the labels' first appearance in
    the text, so they can differ from graph's. Raises GraphValidationError
    naming the first vertex (by id) the format cannot hold: one with no
    edge, or a label that the parser would not read back as one token.
    """
    isolated = np.bincount(graph.edge_array.ravel(), minlength=graph.n) == 0
    for label, alone in zip(graph.labels, isolated.tolist()):
        if alone or "#" in label or label.split() != [label]:
            why = "has no edge" if alone else "is not one token without '#'"
            raise GraphValidationError(f"vertex {label!r} {why}; edge-list text cannot hold it")
    return "".join(f"{graph.labels[u]} {graph.labels[v]}\n" for u, v in graph.edge_array.tolist())


def _partition(graph: Graph) -> tuple[np.ndarray, ...]:
    """The connected components as read-only ascending id arrays, ordered by
    smallest member.

    Every vertex points at a smaller or equal id in its component, at first
    itself. Each round hooks the root of every edge's higher end to the
    smaller root across it, then follows the pointers to their roots
    (pointer jumping), until every edge's two ends share a root: that root
    is the component's smallest member.
    """
    root = np.arange(graph.n)
    u, v = graph.edge_array.T
    while len(u):
        ru, rv = root[u], root[v]
        split = ru != rv
        u, v = u[split], v[split]  # ends that share a root keep sharing one
        np.minimum.at(root, np.maximum(ru, rv)[split], np.minimum(ru, rv)[split])
        jumped = root[root]
        while not np.array_equal(jumped, root):
            root, jumped = jumped, jumped[jumped]
    order = np.argsort(root, kind="stable")
    order.setflags(write=False)
    cuts = [0, *(np.flatnonzero(np.diff(root[order])) + 1).tolist(), graph.n]
    return tuple(order[s:e] for s, e in zip(cuts, cuts[1:]) if s < e)  # np.split is 4x slower


def connected_components(graph: Graph) -> list[set[int]]:
    """Partition vertex ids by reachability, ordered by smallest member id."""
    return [set(comp.tolist()) for comp in graph._components]


def is_connected(graph: Graph) -> bool:
    return len(graph._components) == 1


@dataclass(frozen=True, eq=False)
class TriangleSet:
    """All 3-cliques of a graph on n vertices, canonically ordered.

    triangle_array holds each clique once as a row (p, q, r) with p < q < r,
    rows sorted, in a read-only (T, 3) int64 array. The constructor
    raises GraphValidationError for a triangle_array that breaks this form;
    that the rows are cliques of some graph is not checked.
    """

    triangle_array: np.ndarray
    n: int

    def __post_init__(self):
        _check_rows(self.triangle_array, 3, self.n, "triangle_array")
        self.triangle_array.setflags(write=False)

    def __len__(self) -> int:
        return len(self.triangle_array)

    def count_per_vertex(self) -> list[int]:
        """T(i): number of triangles containing each vertex."""
        return np.bincount(self.triangle_array.ravel(), minlength=self.n).tolist()


def _check_rows(rows: np.ndarray, width: int, n: int, name: str) -> None:
    """Raise GraphValidationError unless rows is an int64 (k, width) array,
    width 2 or 3, of vertex ids below n, each row strictly ascending and the
    rows strictly ascending in lexicographic order (so none repeats)."""
    if not (
        isinstance(rows, np.ndarray)
        and rows.dtype == np.int64
        and rows.ndim == 2
        and rows.shape[1] == width
    ):
        raise GraphValidationError(f"{name} must be an int64 array of shape (k, {width})")
    if not len(rows):
        return
    if (rows[:, 1:] <= rows[:, :-1]).any():
        raise GraphValidationError(f"{name} holds a row that does not strictly ascend")
    last = rows[:, -1]
    if rows[:, 0].min() < 0 or last.max() >= n:
        raise GraphValidationError(f"{name} holds a vertex id outside 0..{n - 1}")
    # rows ascend by their leading columns, as one key, then by the last one
    lead = rows[:, 0] * n + rows[:, 1] if width == 3 else rows[:, 0]
    step = lead[1:] - lead[:-1]
    if not ((step > 0) | ((step == 0) & (last[1:] > last[:-1]))).all():
        raise GraphValidationError(f"{name} rows are not sorted and unique")


def enumerate_triangles(graph: Graph) -> TriangleSet:
    """The graph's 3-cliques, listed on first use; every caller shares the
    one immutable TriangleSet."""
    return graph._triangles


# Wedges _triangle_rows checks at a time: its per-chunk temporaries stay
# within a few MB however dense the graph.
_WEDGE_CHUNK = 1 << 15


def _list_triangles(graph: Graph) -> TriangleSet:
    """The graph's triangles, canonically sorted, so the result does not
    depend on the order _triangle_rows finds them in."""
    n = graph.n
    tri = _triangle_rows(graph)
    tri.sort(axis=1)
    # rows by (p, q, r): by r, then stably by p * n + q; the one key
    # (p * n + q) * n + r would overflow int64 past 2**21 vertices
    tri = tri[np.argsort(tri[:, 2])]
    return TriangleSet(triangle_array=tri[np.argsort(tri[:, 0] * n + tri[:, 1], kind="stable")], n=n)


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
