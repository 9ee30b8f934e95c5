"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive and kept away from the library code
paths it checks: component counts by plain BFS, triangle counts by trace(A^3),
betweenness by explicit shortest-path enumeration over exact rationals,
subgraph centrality by a truncated Taylor series of exp(A), the alpha-triangle
operator by a dense tensor and a triple-loop contraction. The forward-loop
triangle listing, the loop-based operator build, the competition rankings
(eager rows, and columns_of for their columns), the rank correlations, the
per-caller graph builders, the two power loops (with their per-row adjacency
product and their refusal of a tol within rounding), the adjacency matrix,
the per-source betweenness loop, the triangle-centrality and
neighbour-triangle-sum loops, the eager triangle incidence build, the
two-digraph weak-irreducibility check and the cell-at-a-time CSV and JSON
table writers (csv_by_cells, and json_rows for json.dumps) are the reference
the library versions must match exactly.
record_apply records the iterates a solver takes, so a test can rebuild each
iterate's bracket.

The oracles read a graph only through its edge and triangle rows
(Graph.edge_array, TriangleSet.triangle_array): neighbours come from a loop
over the edge rows (neighbors_of), never from the library's CSR, so the
paths that read that CSR are checked against something independent of it.
"""

from __future__ import annotations

import io
import math
import random
import warnings
from collections import deque
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from tricent import (
    AlphaDomainError,
    CentralityReport,
    ConvergenceError,
    DuplicateEdgeWarning,
    EdgeListParseError,
    Graph,
    GraphValidationError,
    NotConnectedError,
    RankedTriangle,
    RankedVertex,
    SpectralResult,
    TriangleSet,
    is_connected,
    make_report,
)
from tricent.report import VERTEX_TIE_TOL, label_sort_key
from tricent.tensor import DEFAULT_MAX_ITER, DEFAULT_SHIFT, DEFAULT_TOL


def neighbor_tuples(n: int, edges: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    """Each of n vertices' neighbours under edges, gathered by a loop and sorted."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return tuple(tuple(sorted(nbrs)) for nbrs in adj)


def neighbors_of(graph: Graph) -> tuple[tuple[int, ...], ...]:
    """The graph's neighbour tuples, ascending, from its edge rows: the
    library's CSR (Graph._csr) is not read."""
    return neighbor_tuples(graph.n, graph.edge_array.tolist())


def adjacency_of(graph: Graph) -> np.ndarray:
    a = np.zeros((graph.n, graph.n))
    for i, j in graph.edge_array.tolist():
        a[i, j] = a[j, i] = 1.0
    return a


def triangle_count_by_trace(graph: Graph) -> int:
    """6 * #triangles == trace(A^3) for a simple undirected graph."""
    a = adjacency_of(graph)
    trace = float(np.trace(a @ a @ a))
    count = round(trace / 6.0)
    assert abs(trace - 6.0 * count) < 1e-6
    return count


def triangles_by_combinations(graph: Graph) -> list[tuple[int, int, int]]:
    edges = set(map(tuple, graph.edge_array.tolist()))
    found = []
    for p, q, r in combinations(range(graph.n), 3):
        if (p, q) in edges and (p, r) in edges and (q, r) in edges:
            found.append((p, q, r))
    return found


def triangles_by_forward_loop(graph: Graph) -> tuple[tuple[int, int, int], ...]:
    """List every 3-clique once via the degree-ordered forward algorithm.

    Vertices are processed in non-increasing degree order (ties by id); each
    triangle is reported exactly once in O(m^(3/2)) intersections. Output is
    canonically sorted, as (p, q, r) tuples with p < q < r, so the result is
    independent of processing order.
    """
    n = graph.n
    adjacency = neighbors_of(graph)
    order = sorted(range(n), key=lambda v: (-len(adjacency[v]), v))
    rank = [0] * n
    for pos, v in enumerate(order):
        rank[v] = pos

    forward: list[set[int]] = [set() for _ in range(n)]
    triangles: list[tuple[int, int, int]] = []
    for v in order:
        for u in adjacency[v]:
            if rank[u] <= rank[v]:
                continue
            for w in forward[v] & forward[u]:
                triangles.append(tuple(sorted((u, v, w))))
            forward[u].add(v)
    triangles.sort()
    return tuple(triangles)


def components_by_bfs(graph: Graph) -> list[set[int]]:
    adjacency = neighbors_of(graph)
    seen: set[int] = set()
    out = []
    for start in range(graph.n):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        seen.add(start)
        while queue:
            u = queue.pop()
            for w in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        out.append(comp)
    return out


def digraph_strongly_connected(op) -> bool:
    """Weak irreducibility as first tested: build the operator's associated
    digraph from its edge and triangle arcs, then BFS it forwards and
    backwards from vertex 0; the tensor is weakly irreducible iff both
    searches reach every vertex."""
    n = op.n
    out_arcs: list[set[int]] = [set() for _ in range(n)]
    if op.alpha > 0.0:
        for i, j in op.graph.edge_array.tolist():
            out_arcs[i].add(j)
            out_arcs[j].add(i)
    if op.alpha < 1.0:
        for p, q, r in op.triangles.triangle_array.tolist():
            out_arcs[p].update((q, r))
            out_arcs[q].update((p, r))
            out_arcs[r].update((p, q))
    in_arcs: list[set[int]] = [set() for _ in range(n)]
    for i in range(n):
        for j in out_arcs[i]:
            in_arcs[j].add(i)

    def reaches_all(arcs: list[set[int]]) -> bool:
        seen, queue = {0}, deque([0])
        while queue:
            for w in arcs[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == n

    return reaches_all(out_arcs) and reaches_all(in_arcs)


def betweenness_by_enumeration(graph: Graph) -> list[Fraction]:
    """Exact betweenness from an explicit list of all shortest paths.

    Enumerates every simple path between each unordered pair by DFS, keeps
    the ones of minimum length, and credits interior vertices with exact
    rational fractions. Exponential; fine for n <= 9.
    """
    n = graph.n
    adjacency = neighbors_of(graph)
    bc = [Fraction(0)] * n

    def all_simple_paths(s: int, t: int) -> list[list[int]]:
        paths = []
        stack = [(s, [s])]
        while stack:
            node, path = stack.pop()
            if node == t:
                paths.append(path)
                continue
            for w in adjacency[node]:
                if w not in path:
                    stack.append((w, path + [w]))
        return paths

    for s, t in combinations(range(n), 2):
        paths = all_simple_paths(s, t)
        if not paths:
            continue
        shortest = min(len(p) for p in paths)
        geodesics = [p for p in paths if len(p) == shortest]
        sigma = len(geodesics)
        for p in geodesics:
            for v in p[1:-1]:
                bc[v] += Fraction(1, sigma)
    return bc


def subgraph_centrality_by_taylor(graph: Graph, terms: int = 60) -> np.ndarray:
    """diag(exp(A)) via sum_k diag(A^k) / k!."""
    a = adjacency_of(graph)
    power = np.eye(graph.n)
    total = np.diag(power).copy()
    factorial = 1.0
    for k in range(1, terms + 1):
        power = power @ a
        factorial *= k
        total += np.diag(power) / factorial
    return total


def random_connected_graph(rng: random.Random, n: int, extra_edge_prob: float = 0.25) -> Graph:
    """Random tree plus random extra edges; always connected, labels '0'..'n-1'."""
    pairs = []
    for v in range(1, n):
        pairs.append((str(rng.randrange(v)), str(v)))
    for u, v in combinations(range(n), 2):
        if rng.random() < extra_edge_prob:
            pairs.append((str(u), str(v)))
    seen = set()
    unique = []
    for a, b in pairs:
        key = (min(a, b, key=int), max(a, b, key=int))
        if key not in seen:
            seen.add(key)
            unique.append(key)
    return Graph.from_edge_labels(unique)


def random_tree(rng: random.Random, n: int) -> Graph:
    return random_connected_graph(rng, n, extra_edge_prob=0.0)


def path_graph(n: int) -> Graph:
    return Graph.from_edge_labels([(str(i), str(i + 1)) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    pairs = [(str(i), str(i + 1)) for i in range(1, n)] + [(str(n), "1")]
    return Graph.from_edge_labels(pairs)


def complete_graph(n: int) -> Graph:
    return Graph.from_edge_labels(
        [(str(i), str(j)) for i, j in combinations(range(1, n + 1), 2)]
    )


def star_graph(leaves: int) -> Graph:
    return Graph.from_edge_labels([("c", str(i)) for i in range(1, leaves + 1)])


def wheel_graph(spokes: int) -> Graph:
    """A hub joined to every vertex of a cycle of the given length."""
    rim = [(f"r{i}", f"r{(i + 1) % spokes}") for i in range(spokes)]
    return Graph.from_edge_labels([("h", f"r{i}") for i in range(spokes)] + rim)


def spider_graph(legs: Sequence[int]) -> Graph:
    """Paths of the given lengths hung from one hub. Equal legs make
    lambda_2 of the Laplacian repeat; one leg a vertex longer splits it by
    a gap that shrinks as the legs grow."""
    pairs = []
    for k, length in enumerate(legs):
        ends = ["hub", *(f"l{k}.{i}" for i in range(length))]
        pairs += zip(ends, ends[1:])
    return Graph.from_edge_labels(pairs)


def holme_kim_graph(rng: random.Random, n: int, m: int = 4, p: float = 0.6) -> Graph:
    """Holme-Kim-like clustered power-law graph, connected, labels '0'..'n-1'.

    A clique on m + 1 vertices, then each new vertex links to m others: a
    degree-biased pick, then with probability p a neighbour of the last such
    pick (closing a triangle), otherwise another degree-biased pick.
    """
    adj: list[set[int]] = [set() for _ in range(n)]
    ends: list[int] = []  # one entry per edge end, so a uniform pick is degree-biased
    pairs = []

    def link(u: int, v: int) -> None:
        adj[u].add(v)
        adj[v].add(u)
        ends.extend((u, v))
        pairs.append((str(u), str(v)))

    for v in range(m + 1):
        for u in range(v):
            link(u, v)
    for v in range(m + 1, n):
        chosen: set[int] = set()
        last = None
        while len(chosen) < m:
            if last is not None and rng.random() < p:
                nbrs = sorted(adj[last] - chosen)
                if nbrs:
                    chosen.add(rng.choice(nbrs))
                    continue
            w = rng.choice(ends)
            if w not in chosen:
                chosen.add(w)
                last = w
        for w in sorted(chosen):
            link(w, v)
    return Graph.from_edge_labels(pairs)


def diamond_chain(k: int) -> Graph:
    """k diamonds end to end: 2**k shortest paths between the chain's ends."""
    pairs = []
    for i in range(k):
        for side in ("a", "b"):
            pairs += [(f"c{i}", f"{side}{i}"), (f"{side}{i}", f"c{i + 1}")]
    return Graph.from_edge_labels(pairs)


def relabeled(graph: Graph, rng: random.Random) -> tuple[Graph, dict[str, str]]:
    """The same structure under a random bijective renaming of labels."""
    new_names = [f"x{i}" for i in range(graph.n)]
    rng.shuffle(new_names)
    mapping = {old: new for old, new in zip(graph.labels, new_names)}
    pairs = [
        (mapping[graph.labels[u]], mapping[graph.labels[v]]) for u, v in graph.edge_array.tolist()
    ]
    rng.shuffle(pairs)
    return Graph.from_edge_labels(pairs), mapping


# --- loop-based reference versions of the vectorised library paths ---------


def betweenness_by_loop(graph: Graph) -> np.ndarray:
    """Float Brandes betweenness, one pass per source over Python lists.

    The float path of the library's per-source loop as it was before the
    level-synchronous rewrite; raw scores over unordered pairs.
    """
    n = graph.n
    adjacency = neighbors_of(graph)
    bc = [0.0] * n
    for s in range(n):
        dist = [-1] * n
        sigma = [0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1
        queue = deque([s])
        stack: list[int] = []
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += sigma[v] / sigma[w] * (1.0 + delta[w])
            if w != s:
                bc[w] += delta[w]
    # every unordered pair was accumulated from both endpoints
    return np.array([float(b / 2) for b in bc])


def fiedler_vector_by_eigh(graph: Graph, tol: float = 1e-8) -> np.ndarray:
    """The Fiedler vector from the full dense eigendecomposition.

    The library's routine as it was before it solved for the vector: the
    dense Laplacian diag(A 1) - A, eigh, the second eigenvector normalized,
    the residual checked against tol with a dense product, and the sign
    fixed so the first component larger than tol in magnitude is positive.
    """
    a = adjacency_of(graph)
    lap = np.diag(a.sum(axis=1)) - a
    eigenvalues, vectors = np.linalg.eigh(lap)
    lam2 = float(eigenvalues[1])
    v = vectors[:, 1].copy()
    v /= np.linalg.norm(v)
    residual = float(np.max(np.abs(lap @ v - lam2 * v)))
    if residual >= tol:
        raise ValueError(f"Fiedler residual {residual:.3e} exceeds tol {tol:.3e}")
    for value in v:
        if abs(value) > tol:
            if value < 0:
                v = -v
            break
    return v


def triangle_centrality_by_loop(graph: Graph, triangles: TriangleSet) -> np.ndarray:
    """Raw Burkhardt triangle centrality, triangle neighbours gathered by one
    walk over every triangle; all zeros on a triangle-free graph.

    The library's per-vertex loop, before these sums came from edge arrays.
    """
    n = graph.n
    t = triangles.count_per_vertex()
    total = len(triangles)
    if total == 0:
        return np.zeros(n)
    tri_neighbors: list[set[int]] = [set() for _ in range(n)]
    for p, q, r in triangles.triangle_array.tolist():
        tri_neighbors[p].update((q, r))
        tri_neighbors[q].update((p, r))
        tri_neighbors[r].update((p, q))
    adjacency = neighbors_of(graph)
    scores = np.zeros(n)
    for v in range(n):
        core = t[v] + sum(t[u] for u in sorted(tri_neighbors[v]))
        outside = sum(t[w] for w in adjacency[v] if w not in tri_neighbors[v])
        scores[v] = (core / 3.0 + outside) / total
    return scores


def neighbor_triangles_by_loop(graph: Graph, triangles: TriangleSet) -> list[int]:
    """NT(i) = sum of T(j) over the neighbours j of i, one Python sum per vertex."""
    t = triangles.count_per_vertex()
    return [sum(t[j] for j in nbrs) for nbrs in neighbors_of(graph)]


def incidence_by_loop(triangles: TriangleSet, n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per vertex, the sorted (j, k) pairs completing a triangle with it.

    The build the triangle lister once ran eagerly for every TriangleSet.
    """
    incidence: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for p, q, r in triangles.triangle_array.tolist():
        incidence[p].append((q, r))
        incidence[q].append((p, r))
        incidence[r].append((p, q))
    return tuple(tuple(sorted(pairs)) for pairs in incidence)


def operator_arrays_by_loops(
    graph: Graph, triangles: TriangleSet, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols_j, cols_k, coeffs) of the alpha-triangle operator, row by row.

    Per vertex i: one (j, j) entry per neighbor and the (j, k), (k, j) pair of
    every triangle through i, sorted by (j, k); rows are emitted in order.
    """
    n = graph.n
    edge_coeff = alpha
    tri_coeff = (1.0 - alpha) * 0.5
    rows: list[int] = []
    cols_j: list[int] = []
    cols_k: list[int] = []
    coeffs: list[float] = []
    incidence = incidence_by_loop(triangles, n)
    for i, nbrs in enumerate(neighbors_of(graph)):
        entries: list[tuple[int, int, float]] = [(j, j, edge_coeff) for j in nbrs]
        for j, k in incidence[i]:
            entries.append((j, k, tri_coeff))
            entries.append((k, j, tri_coeff))
        entries.sort(key=lambda e: (e[0], e[1]))
        for j, k, c in entries:
            rows.append(i)
            cols_j.append(j)
            cols_k.append(k)
            coeffs.append(c)
    return (
        np.asarray(rows, dtype=np.intp),
        np.asarray(cols_j, dtype=np.intp),
        np.asarray(cols_k, dtype=np.intp),
        np.asarray(coeffs, dtype=float),
    )


def rank_scores(
    labels: Sequence[str],
    scores: np.ndarray,
    tie_tol: float = VERTEX_TIE_TOL,
) -> tuple[RankedVertex, ...]:
    """Competition-rank scores descending with tie groups of width tie_tol."""
    order = sorted(range(len(labels)), key=lambda i: (-scores[i], label_sort_key(labels[i])))
    groups: list[list[int]] = []
    prev_score = None
    for i in order:
        s = float(scores[i])
        if prev_score is None or prev_score - s > tie_tol:
            groups.append([])
        groups[-1].append(i)
        prev_score = s
    ranked: list[RankedVertex] = []
    position = 1
    for gid, members in enumerate(groups):
        members.sort(key=lambda i: label_sort_key(labels[i]))
        for i in members:
            ranked.append(RankedVertex(labels[i], float(scores[i]), position, gid))
        position += len(members)
    return tuple(ranked)


class LoopTriangleRanking:
    """A triangle ranking as a tuple of its rows, read as TriangleRanking is
    read: top(k), and score_of and rank_of a triple in any corner order."""

    def __init__(
        self, index: str, params: Mapping[str, object], entries: Sequence[RankedTriangle]
    ) -> None:
        self.index, self.params, self.entries = index, dict(params), tuple(entries)
        self._by_triple: dict[tuple[str, ...], RankedTriangle] = {}
        for entry in self.entries:
            self._by_triple.setdefault(entry.vertices, entry)

    def __len__(self) -> int:
        return len(self.entries)

    def top(self, k: int) -> list[tuple[str, str, str]]:
        if k < 0:
            raise ValueError(f"top needs k >= 0, got {k}")
        return [entry.vertices for entry in self.entries[:k]]

    def score_of(self, vertices: Sequence[str]) -> float:
        return self._by_triple[tuple(sorted(vertices, key=label_sort_key))].score

    def rank_of(self, vertices: Sequence[str]) -> int:
        return self._by_triple[tuple(sorted(vertices, key=label_sort_key))].rank


def rank_triangles(
    index: str,
    params: Mapping[str, object],
    graph: Graph,
    triangles: TriangleSet,
    scores: np.ndarray,
    tie_tol: float,
) -> LoopTriangleRanking:
    triples = [
        tuple(
            sorted((graph.labels[p], graph.labels[q], graph.labels[r]), key=label_sort_key)
        )
        for p, q, r in triangles.triangle_array.tolist()
    ]
    def triple_key(t: int) -> list:
        return [label_sort_key(lab) for lab in triples[t]]

    order = sorted(range(len(triangles)), key=lambda t: (-scores[t], triple_key(t)))
    groups: list[list[int]] = []
    prev = None
    for t in order:
        s = float(scores[t])
        if prev is None or prev - s > tie_tol:
            groups.append([])
        groups[-1].append(t)
        prev = s
    entries: list[RankedTriangle] = []
    position = 1
    for members in groups:
        members.sort(key=triple_key)
        for t in members:
            entries.append(RankedTriangle(triples[t], float(scores[t]), position))
        position += len(members)
    return LoopTriangleRanking(index, params, entries)


def columns_of(rows: Sequence[tuple], row_type: type) -> tuple[np.ndarray, ...]:
    """The read-only columns of RankedVertex or RankedTriangle rows, one cell
    at a time: label (v1, v2, v3 for a triangle) as object arrays, score as
    float64, then rank and, for a vertex, tie group as intp."""
    if row_type is RankedTriangle:
        cells = [(*row.vertices, *row[1:]) for row in rows]
        kinds = (object, object, object, np.float64, np.intp)
    else:
        cells = [tuple(row) for row in rows]
        kinds = (object, np.float64, np.intp, np.intp)
    columns = tuple(
        np.array([cell[c] for cell in cells], dtype=kind) for c, kind in enumerate(kinds)
    )
    for column in columns:
        column.setflags(write=False)
    return columns


def average_ranks(values: np.ndarray, tol: float) -> list[Fraction]:
    """Ascending average ranks; values within tol (chained) share a rank."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    groups: list[list[int]] = []
    prev = None
    for i in order:
        v = float(values[i])
        if prev is None or v - prev > tol:
            groups.append([])
        groups[-1].append(i)
        prev = v
    ranks = [Fraction(0)] * len(values)
    position = 1
    for group in groups:
        k = len(group)
        shared = Fraction(2 * position + k - 1, 2)  # mean of position..position+k-1
        for i in group:
            ranks[i] = shared
        position += k
    return ranks


def pearson_of_ranks(ra: Sequence[Fraction], rb: Sequence[Fraction]) -> float:
    n = len(ra)
    sa, sb = sum(ra), sum(rb)
    num = n * sum(x * y for x, y in zip(ra, rb)) - sa * sb
    da = n * sum(x * x for x in ra) - sa * sa
    db = n * sum(y * y for y in rb) - sb * sb
    if da == 0 or db == 0:
        raise ValueError("correlation is undefined: all scores tie on one side")
    if da == db:
        return float(num / da)  # exact rational, so perfect agreement is exactly +-1
    return float(num) / math.sqrt(float(da) * float(db))


def kendall_tau_b(a: np.ndarray, b: np.ndarray, tol: float) -> float:
    n = len(a)
    concordant = discordant = tied_a = tied_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            xa = float(a[i]) - float(a[j])
            xb = float(b[i]) - float(b[j])
            sign_a = 0 if abs(xa) <= tol else (1 if xa > 0 else -1)
            sign_b = 0 if abs(xb) <= tol else (1 if xb > 0 else -1)
            if sign_a == 0:
                tied_a += 1
            if sign_b == 0:
                tied_b += 1
            if sign_a and sign_b:
                if sign_a == sign_b:
                    concordant += 1
                else:
                    discordant += 1
    pairs = n * (n - 1) // 2
    denom_a = pairs - tied_a
    denom_b = pairs - tied_b
    if denom_a == 0 or denom_b == 0:
        raise ValueError("correlation is undefined: all scores tie on one side")
    if denom_a == denom_b:
        return float(Fraction(concordant - discordant, denom_a))
    return (concordant - discordant) / math.sqrt(denom_a * denom_b)


# --- the library's code before one graph builder and one power kernel -------
#
# The four hand-written "edge set -> Graph" builders, the dense-tensor oracle
# of the operator, and the two Collatz-Wielandt power loops, as they were.
# The array builder and the shared shifted power kernel must reproduce them
# exactly: same graphs, bitwise-equal solver results and reports. Each
# builder returns, next to a Graph made from its edges, its own adjacency
# and edge tuples, which the library graph's CSR and arrays must equal.

MATERIALIZE_LIMIT = 64


class OracleGraph(NamedTuple):
    """A graph a builder below made: graph has its labels and edge rows, and
    adjacency and edges are the builder's own tuples of Python ints."""

    graph: Graph
    adjacency: tuple[tuple[int, ...], ...]
    edges: tuple[tuple[int, int], ...]


def oracle_graph(labels: Sequence[str], edge_set: Iterable[tuple[int, int]]) -> OracleGraph:
    """The OracleGraph on labels with the (u, v), u < v, of edge_set: each
    vertex's neighbours gathered by a loop and sorted, and the edges sorted."""
    edges = tuple(sorted(edge_set))
    return OracleGraph(
        Graph(labels=tuple(labels), edge_array=np.array(edges, dtype=np.int64).reshape(-1, 2)),
        neighbor_tuples(len(labels), edges),
        edges,
    )


def graph_from_edge_labels(pairs: Iterable[tuple[str, str]]) -> OracleGraph:
    """Build a graph from (label, label) pairs, ids in first-appearance order."""
    labels: list[str] = []
    index: dict[str, int] = {}

    def intern(lab: str) -> int:
        if lab not in index:
            index[lab] = len(labels)
            labels.append(lab)
        return index[lab]

    edge_set: set[tuple[int, int]] = set()
    for a, b in pairs:
        u, v = intern(a), intern(b)
        if u == v:
            raise GraphValidationError(f"self-loop at vertex {a!r}")
        edge_set.add((min(u, v), max(u, v)))
    if not labels:
        raise GraphValidationError("empty graph")
    return oracle_graph(labels, edge_set)


def load_edge_list(source: str | Path | TextIO, *, dedupe: bool = False) -> OracleGraph:
    """Parse edge-list text into a Graph.

    Every non-comment line holds two whitespace-separated vertex labels;
    ``#`` starts a comment (whole-line or trailing). Labels are mapped to
    0-based internal ids in first-appearance order.

    With dedupe=True, repeated edges and self-loop lines are skipped and
    reported through a DuplicateEdgeWarning; otherwise both are errors.
    """
    if isinstance(source, (str, Path)):
        stream: TextIO = io.StringIO(Path(source).read_text())
    else:
        stream = source

    labels: list[str] = []
    index: dict[str, int] = {}

    def intern(lab: str) -> int:
        if lab not in index:
            index[lab] = len(labels)
            labels.append(lab)
        return index[lab]

    edge_set: set[tuple[int, int]] = set()
    duplicates = 0
    self_loops = 0
    for lineno, raw in enumerate(stream, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        tokens = text.split()
        if len(tokens) != 2:
            raise EdgeListParseError(
                f"expected two labels, got {len(tokens)}: {text!r}", lineno
            )
        u, v = intern(tokens[0]), intern(tokens[1])
        if u == v:
            if dedupe:
                self_loops += 1
                continue
            raise GraphValidationError(
                f"line {lineno}: self-loop at vertex {tokens[0]!r}"
            )
        key = (min(u, v), max(u, v))
        if key in edge_set:
            if dedupe:
                duplicates += 1
                continue
            raise GraphValidationError(
                f"line {lineno}: duplicate edge {tokens[0]!r} -- {tokens[1]!r}"
            )
        edge_set.add(key)

    if not labels:
        raise GraphValidationError("empty graph: no edges or vertices found")
    if duplicates or self_loops:
        parts = []
        if duplicates:
            parts.append(f"{duplicates} duplicate edge(s)")
        if self_loops:
            parts.append(f"{self_loops} self-loop line(s)")
        warnings.warn("dropped " + " and ".join(parts), DuplicateEdgeWarning, stacklevel=2)
    return oracle_graph(labels, edge_set)


def remove_vertices(graph: Graph, labels: Iterable[str]) -> OracleGraph:
    """Induced subgraph on the surviving vertices; their labels are kept."""
    doomed = {graph.id_of(lab) for lab in labels}
    survivors = [i for i in range(graph.n) if i not in doomed]
    if not survivors:
        raise GraphValidationError("removal would leave an empty graph")
    new_id = {old: new for new, old in enumerate(survivors)}
    edges: list[tuple[int, int]] = []
    for u, v in graph.edge_array.tolist():
        if u in doomed or v in doomed:
            continue
        a, b = new_id[u], new_id[v]
        edges.append((min(a, b), max(a, b)))
    return oracle_graph([graph.labels[i] for i in survivors], edges)


def induced(graph: Graph, keep: list[int]) -> OracleGraph:
    new_id = {old: new for new, old in enumerate(keep)}
    keep_set = set(keep)
    edges = [
        (new_id[u], new_id[v])
        for u, v in graph.edge_array.tolist()
        if u in keep_set and v in keep_set
    ]
    return oracle_graph([graph.labels[i] for i in keep], edges)


def materialize_tensor(
    graph: Graph, triangles: TriangleSet, alpha: float
) -> np.ndarray:
    """Dense n*n*n tensor alpha*A_E + (1-alpha)*A_tri (test oracle only).

    Unlike the operator path, alpha = 0 is accepted here so the blend itself
    can be exercised. Refuses n > 64.
    """
    if graph.n > MATERIALIZE_LIMIT:
        raise ValueError(
            f"dense tensor needs n^3 floats; refusing n = {graph.n} > {MATERIALIZE_LIMIT}"
        )
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise AlphaDomainError(f"alpha must lie in [0, 1] for the oracle, got {alpha}")
    n = graph.n
    tensor = np.zeros((n, n, n))
    edge_coeff = alpha
    tri_coeff = (1.0 - alpha) * 0.5
    for i, j in graph.edge_array.tolist():
        tensor[i, j, j] = edge_coeff
        tensor[j, i, i] = edge_coeff
    for p, q, r in triangles.triangle_array.tolist():
        for a, b, c in ((p, q, r), (p, r, q), (q, p, r), (q, r, p), (r, p, q), (r, q, p)):
            tensor[a, b, c] = tri_coeff
    return tensor


def contract_tensor(tensor: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Naive triple-loop contraction (T x^2)_i = sum_jk T[i,j,k] x_j x_k.

    Reference implementation: accumulates in exact (j, k) lexicographic order,
    which pins the floating-point result apply() must reproduce bitwise.
    """
    n = len(x)
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            for k in range(n):
                acc += tensor[i, j, k] * x[j] * x[k]
        out[i] = acc
    return out


def solve_spectral_by_loop(
    op,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    x0: np.ndarray | None = None,
) -> SpectralResult:
    """Shifted higher-order power iteration for rho(A) and its eigenvector.

    Iterates y = A x^2 + shift * x^[2]; x <- sqrt(y) / ||sqrt(y)||_2. The
    Collatz-Wielandt ratios y_i / x_i^2 bracket rho + shift from both sides,
    the bracket tightens monotonically, and iteration stops when its width
    falls below tol. Raises ConvergenceError with the current bracket if the
    budget runs out, or at the first iteration whose bracket puts tol within
    rounding (within_rounding).
    """
    n = op.n
    shift = DEFAULT_SHIFT
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if x0 is None:
        x = np.full(n, 1.0 / np.sqrt(n))
    else:
        x = np.asarray(x0, dtype=float)
        if x.shape != (n,):
            raise ValueError(f"seed vector must have length {n}")
        if np.any(x <= 0):
            raise ValueError("seed vector must be strictly positive")
        x = x / np.linalg.norm(x)

    lo = hi = np.nan
    for iteration in range(1, max_iter + 1):
        x_sq = x * x
        y = op.apply(x) + shift * x_sq
        if np.any(y <= 0):
            raise RuntimeError(
                "nonpositive iterate component: operator is not weakly "
                "irreducible (disconnected input?) or the seed was invalid"
            )
        ratios = y / x_sq
        lo = float(ratios.min()) - shift
        hi = float(ratios.max()) - shift
        within_rounding(tol, lo, hi, shift, iteration)
        if hi - lo < tol:
            rho = 0.5 * (lo + hi)
            residual = float(np.max(np.abs(op.apply(x) - rho * x_sq)))
            return SpectralResult(
                rho=rho,
                x=x,
                iterations=iteration,
                residual=residual,
                bracket=(lo, hi),
            )
        x = np.sqrt(y)
        x /= np.linalg.norm(x)

    raise ConvergenceError(
        f"no convergence after {max_iter} iterations; bracket width "
        f"{hi - lo:.3e} > tol {tol:.3e}",
        bracket=(lo, hi),
        iterations=max_iter,
    )


def within_rounding(tol: float, lo: float, hi: float, shift: float, iteration: int) -> None:
    """Raise ConvergenceError if tol is at most 16 ulps (2**-48) of lo +
    shift, the shifted bracket's lower end: a bracket that narrow is
    rounding noise, and one that rounding closed would meet any tol."""
    if tol <= 2.0**-48 * (lo + shift):
        raise ConvergenceError(
            f"no convergence: tol {tol:.3e} is within rounding of the bracket "
            f"[{lo:.10g}, {hi:.10g}] at iteration {iteration}",
            bracket=(lo, hi),
            iterations=iteration,
        )


def record_apply(op) -> list[tuple[np.ndarray, np.ndarray]]:
    """Wrap op.apply on the instance and return the list it records into.

    The list gets a copy of every (x, op.apply(x)) pair, in call order. The
    solvers look apply up on the instance, so this sees every iterate they
    take, and collatz_wielandt_brackets rebuilds their brackets from it.
    """
    inner, calls = op.apply, []

    def recorded(x):
        ax = inner(x)
        calls.append((x.copy(), ax.copy()))
        return ax

    op.apply = recorded
    return calls


def collatz_wielandt_brackets(
    calls: Sequence[tuple[np.ndarray, np.ndarray]], order: int = 3
) -> list[tuple[float, float]]:
    """The (lo, hi) bracket of each recorded iterate, by the solvers' own
    float expressions: y = op.apply(x) + shift * x^[order-1], and the min
    and max of y / x^[order-1], less the shift (DEFAULT_SHIFT)."""
    shift = DEFAULT_SHIFT
    brackets = []
    for x, ax in calls:
        x_pow = x if order == 2 else x * x
        ratios = (ax + shift * x_pow) / x_pow
        brackets.append((float(ratios.min()) - shift, float(ratios.max()) - shift))
    return brackets


def running_intersection(brackets: Iterable[tuple[float, float]]) -> list[tuple[float, float]]:
    """(max lo, min hi) over each prefix of brackets."""
    out, lo, hi = [], -math.inf, math.inf
    for lo_k, hi_k in brackets:
        lo, hi = max(lo, lo_k), min(hi, hi_k)
        out.append((lo, hi))
    return out


def eigenvector_centrality_by_loop(
    graph: Graph, tol: float = 1e-10, max_iter: int = 100_000
) -> CentralityReport:
    """Positive unit-Euclidean Perron vector of the adjacency matrix.

    Power iteration on A + I: the +1 diagonal shift makes the matrix primitive
    for every connected graph (bipartite graphs included), so the iteration
    always converges. A x is adjacency_product_by_loop. Collatz-Wielandt
    ratios bracket the eigenvalue and the loop stops when the bracket is
    narrower than tol, or refuses a tol within rounding (within_rounding).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not is_connected(graph):
        raise NotConnectedError("eigenvector centrality needs a connected graph")
    n = graph.n
    product = adjacency_product_by_loop(graph)
    x = np.full(n, 1.0 / np.sqrt(n))
    lo = hi = np.nan
    for iteration in range(1, max_iter + 1):
        ax = product(x)
        y = ax + x
        ratios = y / x
        lo = float(ratios.min()) - 1.0
        hi = float(ratios.max()) - 1.0
        within_rounding(tol, lo, hi, 1.0, iteration)
        if hi - lo < tol:
            lam = 0.5 * (lo + hi)
            return make_report(
                "ec",
                {},
                graph.labels,
                x,
                "unit-euclidean",
                meta={
                    "eigenvalue": lam,
                    "iterations": iteration,
                    "residual": float(np.max(np.abs(ax - lam * x))),
                },
            )
        x = y / np.linalg.norm(y)
    raise ConvergenceError(
        f"eigenvector centrality: no convergence after {max_iter} iterations",
        bracket=(lo, hi),
        iterations=max_iter,
    )


def adjacency_product_by_loop(graph: Graph):
    """x -> A x, each entry summed as 0.0 + x_j + ... over the vertex's
    neighbours in ascending order (neighbors_of), one Python add at a time."""
    rows = neighbors_of(graph)

    def product(x: np.ndarray) -> np.ndarray:
        xs = x.tolist()
        out = []
        for row in rows:
            acc = 0.0
            for j in row:
                acc += xs[j]
            out.append(acc)
        return np.array(out)

    return product


def apply_by_add_at(arrays, x: np.ndarray, block: int) -> np.ndarray:
    """AlphaTriangleOperator.apply as it was before its sliced layout: the
    (rows, cols_j, cols_k, coeffs) arrays of operator_arrays_by_loops, added
    by np.add.at in blocks of `block` entries."""
    rows, cols_j, cols_k, coeffs = arrays
    out = np.zeros(len(x))
    for start in range(0, len(rows), block):
        part = slice(start, start + block)
        contributions = coeffs[part] * x[cols_j[part]]
        contributions *= x[cols_k[part]]
        np.add.at(out, rows[part], contributions)
    return out


def operator_arrays_from_layout(op) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols_j, cols_k, coeffs) read back from an operator's layout.

    Rows ascend, and each row's entries come in the order apply() adds them:
    slice by slice, then the row's entries past the last slice. So they equal
    operator_arrays_by_loops exactly only if every row is summed in
    ascending (j, k) order with the coefficient its entry selects.
    """
    layout = op._layout
    n = op.n
    vertex_at = np.argsort(layout.position)  # the vertex of each layout row
    rows, jj, kk = [], [], []
    for block_jj, block_kk, adds in layout.slices:
        for u, v, s, e in adds:
            rows.append(vertex_at[s:e])
            jj.append(block_jj[u:v])
            kk.append(block_kk[u:v])
    for block_jj, block_kk, block_rows in layout.tail:
        rows.append(vertex_at[block_rows])
        jj.append(block_jj)
        kk.append(block_kk)
    rows, jj, kk = (np.concatenate(parts) for parts in (rows, jj, kk))
    order = np.argsort(rows, kind="stable")
    rows, jj, kk = rows[order], jj[order], kk[order]
    triangle = jj >= n
    coeffs = np.where(triangle, (1.0 - op.alpha) * 0.5, op.alpha)
    return rows, jj - n * triangle, kk, coeffs


def layout_arrays(layout) -> list[np.ndarray]:
    """Every array an operator layout holds."""
    return [layout.position, *(arr for block in layout.slices for arr in block[:2])] + [
        arr for block in layout.tail for arr in block
    ]


def csv_field(text: str) -> str:
    """text as one CSV field, quoted per RFC 4180 when it holds a comma, a
    quote or a line break."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_cell(value) -> str:
    """One CSV cell: floats at 10 significant digits, tuples ;-joined."""
    if isinstance(value, float):
        return f"{value:.10g}"
    if isinstance(value, tuple):
        value = ";".join(map(str, value))
    return csv_field(str(value))


def csv_by_cells(names: Sequence[str], rows: Iterable[tuple]) -> str:
    """A CSV table written a cell at a time: the header line of names, then
    one line per row, every cell through csv_cell."""
    return "".join(",".join(map(csv_cell, row)) + "\n" for row in (names, *rows))


def json_cell(value):
    """One JSON value: floats at 10 significant digits, tuples as lists,
    dicts by value."""
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, tuple):
        return [json_cell(v) for v in value]
    if isinstance(value, dict):
        return {k: json_cell(v) for k, v in value.items()}
    return value


def json_rows(keys: Sequence[str] | None, rows: Iterable[tuple]) -> list:
    """One dict of json_cell values per row, keyed by keys, or one list per
    row when keys is None."""
    if keys is None:
        return [json_cell(tuple(row)) for row in rows]
    return [dict(zip(keys, map(json_cell, row))) for row in rows]
