"""Classical comparison centralities on the shared Graph type.

Degree (DC), eigenvector (EC), Burkhardt triangle (TC), Brandes betweenness
(BC), Estrada subgraph (SC) centrality, and the Fiedler vector. DC, TC, BC
and SC report raw values (call .unit_euclidean() for the normalized column);
EC is inherently unit-Euclidean and comes from the shifted power kernel that
also solves atec (tensor), at order 2. BC runs Brandes' algorithm
level-synchronously over CSR arrays, a block of sources at a time, with
results bitwise equal to the per-source loop; that loop still computes
graphs with 2**53 or more shortest paths between a pair (where float64
path counts stop being exact) and the exact=True rational mode. All
functions are pure and safe to run concurrently on the same graph.
"""

from __future__ import annotations

import warnings
from collections import deque
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from .graph import Graph, GraphValidationError, TriangleSet, _triangle_neighbor_sums, is_connected
from .report import CentralityReport, make_report
from .tensor import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    ConvergenceError,
    NotConnectedError,
    _shifted_power,
)

SC_SIZE_LIMIT = 5000

# array slots per block of the level-synchronous Brandes; a source takes
# about n + 2m of them, so a block holds _BLOCK_SLOTS // (n + 2m) sources
_BLOCK_SLOTS = 1 << 15
# float64 holds every integer path count below this exactly
_EXACT_PATHS = 2.0**53


def adjacency_matrix(graph: Graph) -> np.ndarray:
    a = np.zeros((graph.n, graph.n))
    i, j = graph.edge_array.T
    a[i, j] = 1.0
    a[j, i] = 1.0
    return a


def laplacian_matrix(graph: Graph) -> np.ndarray:
    a = adjacency_matrix(graph)
    return np.diag(a.sum(axis=1)) - a


def degree_centrality(graph: Graph) -> CentralityReport:
    """DC(i) = number of edges containing i (raw)."""
    return make_report(
        "dc", {}, graph.labels, np.array(graph.degrees(), dtype=float), "raw"
    )


def eigenvector_centrality(
    graph: Graph, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> CentralityReport:
    """Positive unit-Euclidean Perron vector of the adjacency matrix.

    The shared shifted power kernel at order 2, on A + I, with the same
    Anderson mixing as atec: the +1 diagonal shift makes the matrix primitive
    for every connected graph (bipartite graphs included), so the plain
    power step always converges. Collatz-Wielandt ratios bracket the
    eigenvalue and the loop stops when the bracket is narrower than tol; the
    report's meta carries the eigenvalue, iterations and residual.
    """
    if not is_connected(graph):
        raise NotConnectedError("eigenvector centrality needs a connected graph")
    a = adjacency_matrix(graph)
    matrix = SimpleNamespace(n=graph.n, apply=lambda x: a @ x)
    result = _shifted_power(matrix, 2, tol=tol, max_iter=max_iter)
    return make_report(
        "ec",
        {},
        graph.labels,
        result.x,
        "unit-euclidean",
        meta={
            "eigenvalue": result.rho,
            "iterations": result.iterations,
            "residual": result.residual,
        },
    )


def triangle_centrality(graph: Graph, triangles: TriangleSet) -> CentralityReport:
    """Burkhardt triangle centrality (raw).

    TC(v) = ( (1/3) * sum_{u in N_tri(v)+} T(u)
              + sum_{w in N(v) \\ N_tri(v)} T(w) ) / T(G),
    where N_tri(v) are the neighbors sharing a triangle with v, N_tri(v)+
    additionally includes v itself, and T counts triangles. Vertices with no
    triangle anywhere in their closed neighborhood score 0. A triangle-free
    graph yields all zeros with a warning instead of dividing by T(G) = 0.
    """
    total = len(triangles)
    if total == 0:
        warnings.warn("graph has no triangles; triangle centrality is all-zero")
        return make_report("tc", {}, graph.labels, np.zeros(graph.n), "raw")
    t, nt, inner = _triangle_neighbor_sums(graph, triangles)
    scores = ((t + inner) / 3.0 + (nt - inner)) / total
    return make_report("tc", {}, graph.labels, scores, "raw")


def betweenness_centrality(graph: Graph, *, exact: bool = False) -> CentralityReport:
    """Brandes betweenness over unordered vertex pairs, endpoints excluded (raw).

    BC(v) = sum over pairs {s, t} (v distinct from both) of the fraction of
    shortest s-t paths passing through v.

    The float path is a level-synchronous Brandes over CSR arrays: a block of
    sources runs its breadth-first searches one level at a time, then
    back-propagates dependencies one level at a time. It repeats the
    per-source loop's floating-point operations in the loop's order, so the
    scores are bitwise equal to that loop's. Path counts are integers held in
    float64, exact below 2**53; a graph with a shortest-path count of 2**53
    or more is computed by the loop instead. With exact=True the loop
    accumulates over rationals, so the reported floats are the correctly
    rounded exact values (slower; meant for small graphs and oracle checks).
    """
    scores = None if exact else _brandes_by_levels(graph)
    if scores is None:
        scores = _brandes_by_loop(graph, exact)
    return make_report("bc", {}, graph.labels, scores, "raw")


def _brandes_by_levels(graph: Graph) -> np.ndarray | None:
    """Float betweenness, level-synchronous; None if a path count reaches 2**53.

    The sources of a block are the rows of flat (rows * n) arrays, vertex v
    of row r at key r*n + v. Each breadth-first level expands its frontier
    over CSR arcs in the loop's order (frontier in queue order, neighbours
    ascending), so a newly reached vertex's first arc gives its queue
    position. The backward pass takes each level's DAG arcs by descending
    queue position of the head, the loop's stack-pop order, which is the
    order every dependency sum is accumulated in.
    """
    n = graph.n
    indptr, neighbors = graph._csr
    degree = np.diff(indptr)
    block = max(1, min(n, _BLOCK_SLOTS // (n + int(indptr[-1]))))
    rank = np.empty(block * n, dtype=np.int64)  # queue position; -1 = not reached
    first = np.empty(block * n, dtype=np.int64)  # per level: the first arc into each vertex
    sigma = np.empty(block * n)
    delta = np.empty(block * n)
    bc = np.zeros(n)
    for start in range(0, n, block):
        rows = min(block, n - start)
        sources = np.arange(rows) * n + np.arange(start, start + rows)
        rank.fill(-1)
        sigma.fill(0.0)
        delta.fill(0.0)
        rank[sources] = np.arange(rows)
        sigma[sources] = 1.0
        reached = rows
        levels = []
        frontier = sources
        while frontier.size:
            v = frontier % n
            counts = degree[v]
            # arc slots indptr[v] .. indptr[v + 1] - 1 of each frontier vertex, in order
            slot = np.arange(int(counts.sum())) + np.repeat(
                indptr[v] - (np.cumsum(counts) - counts), counts
            )
            tail = np.repeat(frontier, counts)
            head = np.repeat(frontier - v, counts) + neighbors[slot]
            onward = rank[head] < 0
            tail, head = tail[onward], head[onward]
            arc = np.arange(head.size)
            first[head] = head.size
            np.minimum.at(first, head, arc)
            frontier = head[first[head] == arc]
            rank[frontier] = np.arange(reached, reached + frontier.size)
            reached += frontier.size
            np.add.at(sigma, head, sigma[tail])
            levels.append((tail, head))
        if sigma.max() >= _EXACT_PATHS:
            return None
        for tail, head in reversed(levels):
            # arcs into one head have distinct tails, so an unstable sort is
            # enough; np.add.at then adds into each tail in this order
            order = np.argsort(-rank[head])
            tail, head = tail[order], head[order]
            np.add.at(delta, tail, sigma[tail] / sigma[head] * (1.0 + delta[head]))
        delta[sources] = 0.0
        for row in delta[: rows * n].reshape(rows, n):  # one source at a time, as the loop adds
            bc += row
    # every unordered pair was accumulated from both endpoints
    return bc / 2


def _brandes_by_loop(graph: Graph, exact: bool) -> np.ndarray:
    """Betweenness by one Brandes pass per source over Python lists."""
    n = graph.n
    zero = Fraction(0) if exact else 0.0
    one = Fraction(1) if exact else 1.0
    bc = [zero] * n
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
            for w in graph.adjacency[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = [zero] * n
        while stack:
            w = stack.pop()
            for v in preds[w]:
                if exact:
                    delta[v] += Fraction(sigma[v], sigma[w]) * (one + delta[w])
                else:
                    delta[v] += sigma[v] / sigma[w] * (one + delta[w])
            if w != s:
                bc[w] += delta[w]
    # every unordered pair was accumulated from both endpoints
    return np.array([float(b / 2) for b in bc])


def subgraph_centrality(graph: Graph) -> CentralityReport:
    """Estrada subgraph centrality SC(i) = sum_j phi_j(i)^2 * exp(lambda_j) (raw).

    Full symmetric eigendecomposition of the adjacency matrix; counts closed
    walks of every length from i weighted by 1/k!.
    """
    if graph.n > SC_SIZE_LIMIT:
        raise ValueError(
            f"subgraph centrality is dense-eigendecomposition bound; "
            f"n = {graph.n} exceeds the {SC_SIZE_LIMIT} limit"
        )
    eigenvalues, vectors = np.linalg.eigh(adjacency_matrix(graph))
    scores = (vectors**2) @ np.exp(eigenvalues)
    return make_report("sc", {}, graph.labels, scores, "raw")


def fiedler_vector(graph: Graph, tol: float = 1e-8) -> np.ndarray:
    """Unit eigenvector of the second-smallest Laplacian eigenvalue.

    Requires a connected graph (otherwise lambda_2 = 0 is degenerate with the
    constant vector) of at least two vertices (one vertex has no lambda_2).
    The sign is fixed so the first component larger than tol in magnitude is
    positive. The residual ||L v - lambda_2 v||_inf is checked against tol;
    lambda_2 is recoverable as v @ L @ v.
    """
    if graph.n < 2:
        raise GraphValidationError(f"Fiedler vector needs at least two vertices, got {graph.n}")
    if not is_connected(graph):
        raise NotConnectedError("Fiedler vector needs a connected graph")
    lap = laplacian_matrix(graph)
    eigenvalues, vectors = np.linalg.eigh(lap)
    lam2 = float(eigenvalues[1])
    v = vectors[:, 1].copy()
    v /= np.linalg.norm(v)
    residual = float(np.max(np.abs(lap @ v - lam2 * v)))
    if residual >= tol:
        raise ConvergenceError(
            f"Fiedler residual {residual:.3e} exceeds tol {tol:.3e}",
            bracket=(lam2, lam2),
            iterations=0,
        )
    for value in v:
        if abs(value) > tol:
            if value < 0:
                v = -v
            break
    return v
