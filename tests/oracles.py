"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive and kept away from the library code
paths it checks: component counts by plain BFS, triangle counts by trace(A^3),
betweenness by explicit shortest-path enumeration over exact rationals,
subgraph centrality by a truncated Taylor series of exp(A). The loop-based
operator build, the competition rankings and the rank correlations at the
end are the reference the vectorised library versions must match exactly.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from tricent import Graph, RankedTriangle, RankedVertex, TriangleRanking, TriangleSet
from tricent.report import VERTEX_TIE_TOL, label_sort_key


def adjacency_of(graph: Graph) -> np.ndarray:
    a = np.zeros((graph.n, graph.n))
    for i, j in graph.edges:
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
    found = []
    for p, q, r in combinations(range(graph.n), 3):
        if graph.has_edge(p, q) and graph.has_edge(p, r) and graph.has_edge(q, r):
            found.append((p, q, r))
    return found


def components_by_bfs(graph: Graph) -> list[set[int]]:
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
            for w in graph.adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        out.append(comp)
    return out


def betweenness_by_enumeration(graph: Graph) -> list[Fraction]:
    """Exact betweenness from an explicit list of all shortest paths.

    Enumerates every simple path between each unordered pair by DFS, keeps
    the ones of minimum length, and credits interior vertices with exact
    rational fractions. Exponential; fine for n <= 9.
    """
    n = graph.n
    bc = [Fraction(0)] * n

    def all_simple_paths(s: int, t: int) -> list[list[int]]:
        paths = []
        stack = [(s, [s])]
        while stack:
            node, path = stack.pop()
            if node == t:
                paths.append(path)
                continue
            for w in graph.adjacency[node]:
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


def relabeled(graph: Graph, rng: random.Random) -> tuple[Graph, dict[str, str]]:
    """The same structure under a random bijective renaming of labels."""
    new_names = [f"x{i}" for i in range(graph.n)]
    rng.shuffle(new_names)
    mapping = {old: new for old, new in zip(graph.labels, new_names)}
    pairs = [(mapping[graph.labels[u]], mapping[graph.labels[v]]) for u, v in graph.edges]
    rng.shuffle(pairs)
    return Graph.from_edge_labels(pairs), mapping


# --- loop-based reference versions of the vectorised library paths ---------


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
    for i in range(n):
        entries: list[tuple[int, int, float]] = [
            (j, j, edge_coeff) for j in graph.adjacency[i]
        ]
        for j, k in triangles.incidence[i]:
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


def rank_triangles(
    index: str,
    params: Mapping[str, object],
    graph: Graph,
    triangles: TriangleSet,
    scores: np.ndarray,
    tie_tol: float,
) -> TriangleRanking:
    triples = [
        tuple(
            sorted((graph.labels[p], graph.labels[q], graph.labels[r]), key=label_sort_key)
        )
        for p, q, r in triangles.triangles
    ]
    order = sorted(
        range(len(triangles)),
        key=lambda t: (-scores[t], [label_sort_key(lab) for lab in triples[t]]),
    )
    entries: list[RankedTriangle] = []
    position = 0
    block_rank = 0
    prev = None
    for t in order:
        position += 1
        s = float(scores[t])
        if prev is None or prev - s > tie_tol:
            block_rank = position
        entries.append(RankedTriangle(triples[t], s, block_rank))
        prev = s
    return TriangleRanking(index=index, params=dict(params), entries=tuple(entries))


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
