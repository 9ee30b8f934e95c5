"""Classical comparison centralities on the shared Graph type.

Degree (DC), eigenvector (EC), Burkhardt triangle (TC), Brandes betweenness
(BC), Estrada subgraph (SC) centrality, and the Fiedler vector. DC, TC, BC
and SC report raw values (call .unit_euclidean() for the normalized column);
EC is inherently unit-Euclidean and comes from the shifted power kernel that
also solves atec (tensor), at order 2. BC runs Brandes' algorithm
level-synchronously over CSR arrays, a block of sources at a time, each
level top-down or bottom-up, whichever scans fewer arcs, with results
bitwise equal to the per-source loop; that loop still computes graphs with
2**53 or more shortest paths between a pair (where float64 path counts stop
being exact) and the exact=True rational mode. The Fiedler vector takes
lambda_2 from the Laplacian's eigenvalues alone and the vector from one or
two linear solves, and falls back to the full eigendecomposition where
lambda_2 is (nearly) repeated. All functions are pure and safe to run
concurrently on the same graph.
"""

from __future__ import annotations

import warnings
from collections import deque
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

# largest vertex count admitted to dense n x n work: subgraph centrality's
# eigh and the Fiedler vector's Laplacian
DENSE_SIZE_LIMIT = 5000
# the smallest float whose 10-digit text (the CLI's) reads back as inf
_PRINTABLE_MAX = 1.7976931345e308

# array slots per block of the level-synchronous Brandes; a source takes
# about n + 2m of them (its row of the block's arrays and of its CSR), so a
# block holds _BLOCK_SLOTS // (n + 2m) sources
_BLOCK_SLOTS = 1 << 15
# float64 holds every integer path count below this exactly
_EXACT_PATHS = 2.0**53
# largest share of other eigenvectors that fiedler_vector accepts from its solves
_FIEDLER_SHARE = 1e-10


def adjacency_matrix(graph: Graph) -> np.ndarray:
    a = np.zeros((graph.n, graph.n))
    i, j = graph.edge_array.T
    a[i, j] = 1.0
    a[j, i] = 1.0
    return a


def laplacian_matrix(graph: Graph) -> np.ndarray:
    lap = adjacency_matrix(graph)
    np.subtract(0.0, lap, out=lap)  # 0 - 0 keeps zeros positive
    lap.flat[:: graph.n + 1] = np.diff(graph._csr[0])
    return lap


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
    Anderson mixing and stop rule as atec: the +1 diagonal shift makes the
    matrix primitive for every connected graph (bipartite graphs included).
    A x is summed on the CSR by np.bincount, each row in neighbour order:
    O(m) memory, no BLAS, and bitwise a sequential loop over each row. The
    report's meta carries the eigenvalue, iterations and residual.
    """
    if not is_connected(graph):
        raise NotConnectedError("eigenvector centrality needs a connected graph")
    indptr, indices = graph._csr
    tails = np.repeat(np.arange(graph.n), np.diff(indptr))  # the tail of every arc
    matrix = SimpleNamespace(n=graph.n, apply=lambda x: np.bincount(tails, x[indices], graph.n))
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
    of row r at key r*n + v, over a CSR of the block's rows (_block_csr).
    Each breadth-first level finds the arcs from its frontier to the
    unreached vertices from whichever side has the smaller degree sum
    (Beamer, Asanovic & Patterson, SC 2012): the frontier's arcs
    (_top_down) or the unreached vertices' arcs (_bottom_up). Both queue the
    new frontier as the loop does, by the queue position of a vertex's
    first-dequeued parent, then by id, so every queue position (rank) is the
    loop's. A level keeps its DAG arcs as positions in the two frontiers'
    queue order, and its path counts (sigma) in that order. The backward
    pass takes each level's arcs by descending queue position of the head,
    the loop's stack-pop order, which is the order every dependency sum is
    accumulated in. A level's sums all start from zero, so np.bincount adds
    them as the loop does, and every score is bitwise the loop's.

    A disconnected graph runs one component at a time, so each level's
    direction weighs only the arcs its sources can reach. Its induced
    subgraph keeps the ids' order, and sources elsewhere add exact zeros,
    so the scores are still the loop's.
    """
    if len(graph._components) > 1:
        bc = np.zeros(graph.n)
        for comp, sub in zip(graph._components, graph._component_subgraphs):
            scores = _brandes_by_levels(sub)
            if scores is None:
                return None
            bc[comp] = scores
        return bc
    n = graph.n
    arcs = 2 * graph.m
    block = max(1, min(n, _BLOCK_SLOTS // (n + arcs)))
    csr = _block_csr(graph, block)
    degree = csr[0]
    rank = np.empty(block * n, dtype=np.int64)  # queue position; -1 = not reached
    first = np.empty(block * n, dtype=np.int64)  # _top_down's work array
    delta = np.empty(block * n)
    bc = np.zeros(n)
    for start in range(0, n, block):
        rows = min(block, n - start)
        size = rows * n
        sources = np.arange(rows) * n + np.arange(start, start + rows)
        rank[:size] = -1
        rank[sources] = np.arange(rows)
        frontier, lo, sigma = sources, 0, np.ones(rows)  # queue positions lo, lo + 1, ...
        most = 1.0
        frontier_arcs = int(degree[sources].sum())
        unreached_arcs = rows * arcs - frontier_arcs
        levels = []
        while True:
            if frontier_arcs <= unreached_arcs:
                tail, head, reached = _top_down(csr, frontier, rank, first)
            else:
                tail, head, reached = _bottom_up(csr, (rank[:size] < 0).nonzero()[0], lo, rank)
            if not reached.size:
                break
            top = lo + frontier.size
            rank[reached] = np.arange(top, top + reached.size)
            head = rank[head] - top
            levels.append((frontier, sigma, tail, head))
            sigma = np.bincount(head, sigma[tail], minlength=reached.size)
            most = max(most, sigma.max())
            frontier, lo = reached, top
            frontier_arcs = int(degree[reached].sum())
            unreached_arcs -= frontier_arcs
        if most >= _EXACT_PATHS:
            return None
        delta[:size] = 0.0
        below = np.zeros(frontier.size)  # the deepest level's dependencies
        for keys, tail_sigma, tail, head in reversed(levels):
            # by descending queue position of the head: arcs into one head
            # have distinct tails, so only the order per tail matters; an 8-
            # or 16-bit key takes numpy's radix sort
            width = sigma.size
            order = np.argsort((width - 1 - head).astype(np.min_scalar_type(width)), kind="stable")
            tail, head = tail[order], head[order]
            below = np.bincount(
                tail, tail_sigma[tail] / sigma[head] * (1.0 + below[head]), minlength=keys.size
            )
            delta[keys] = below
            sigma = tail_sigma
        delta[sources] = 0.0
        for row in delta[:size].reshape(rows, n):  # one source at a time, as the loop adds
            bc += row
    # every unordered pair was accumulated from both endpoints
    return bc / 2


def _block_csr(graph: Graph, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(degree, start, neighbors) of rows copies of the graph, copy r on keys
    r*n .. r*n + n - 1: key k has the neighbour keys
    neighbors[start[k] : start[k] + degree[k]], ascending."""
    indptr, neighbors = graph._csr
    shift = np.arange(rows)[:, None]
    return (
        np.tile(np.diff(indptr), rows),
        (shift * len(neighbors) + indptr[:-1]).ravel(),
        (shift * graph.n + neighbors).ravel(),
    )


def _arcs(csr, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(at, others): every arc of the keys, in key order, neighbours
    ascending; at is the position in keys of the arc's own end, others the
    key of its other end."""
    degree, start, neighbors = csr
    counts = degree[keys]
    slot = (start[keys] - counts.cumsum() + counts).repeat(counts)
    slot += np.arange(slot.size)
    return np.arange(keys.size).repeat(counts), neighbors[slot]


def _top_down(
    csr, frontier: np.ndarray, rank: np.ndarray, first: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tail, head, reached) from the frontier's arcs to unreached vertices,
    which the loop scans in this order: a vertex joins the queue at its
    first arc. tail is the position in the frontier, head and reached are
    keys."""
    tail, head = _arcs(csr, frontier)
    onward = rank[head] < 0
    tail, head = tail[onward], head[onward]
    arc = np.arange(head.size)
    first[head] = head.size
    np.minimum.at(first, head, arc)
    return tail, head, head[first[head] == arc]


def _bottom_up(
    csr, unreached: np.ndarray, lo: int, rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_top_down's result from the arcs of the unreached vertices (keys
    ascending) into the frontier, whose queue positions start at lo. A
    reached vertex joins the queue by the position of its first-queued
    parent, ties by key."""
    at, tail = _arcs(csr, unreached)
    parent = rank[tail]
    onward = parent >= lo
    at, parent = at[onward], parent[onward]
    if not at.size:
        return at, at, at
    starts = np.concatenate(([True], at[1:] != at[:-1])).nonzero()[0]  # one per head
    queued = at[starts][np.argsort(np.minimum.reduceat(parent, starts), kind="stable")]
    return parent - lo, unreached[at], unreached[queued]


def _brandes_by_loop(graph: Graph, exact: bool) -> np.ndarray:
    """Betweenness by one Brandes pass per source over Python lists."""
    n = graph.n
    starts, neighbors = (a.tolist() for a in graph._csr)
    if exact:  # fractions loads decimal, so only the rational mode imports it
        from fractions import Fraction
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
            for w in neighbors[starts[v] : starts[v + 1]]:
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


def _check_dense_size(graph: Graph, what: str) -> None:
    """ValueError naming what if graph is over DENSE_SIZE_LIMIT vertices."""
    if graph.n > DENSE_SIZE_LIMIT:
        raise ValueError(
            f"{what} is dense-eigendecomposition bound; "
            f"n = {graph.n} exceeds the {DENSE_SIZE_LIMIT} limit"
        )


def subgraph_centrality(graph: Graph) -> CentralityReport:
    """Estrada subgraph centrality SC(i) = sum_j phi_j(i)^2 * exp(lambda_j) (raw).

    Full symmetric eigendecomposition of the adjacency matrix; counts closed
    walks of every length from i weighted by 1/k!. Each phi_j has unit norm,
    so SC(i) <= exp(lambda_max): a score that overflows, or whose 10-digit
    text reads back as inf, raises ValueError naming lambda_max; only
    lambda_max near ln(DBL_MAX) ~ 709.78 comes that far.
    """
    _check_dense_size(graph, "subgraph centrality")
    eigenvalues, vectors = np.linalg.eigh(adjacency_matrix(graph))
    with np.errstate(over="ignore", invalid="ignore"):
        scores = (vectors**2) @ np.exp(eigenvalues)
    if not np.all(scores < _PRINTABLE_MAX):  # NaN fails the comparison too
        raise ValueError(
            f"subgraph centrality overflows: lambda_max = {eigenvalues[-1]:.10g} "
            f"gives a score of {np.max(scores):.10g}, not below {_PRINTABLE_MAX!r}"
        )
    return make_report("sc", {}, graph.labels, scores, "raw")


def fiedler_vector(graph: Graph, tol: float = 1e-8) -> np.ndarray:
    """Unit eigenvector of the second-smallest Laplacian eigenvalue.

    Requires a connected graph (otherwise lambda_2 = 0 is degenerate with the
    constant vector) of at least two vertices (one vertex has no lambda_2).
    lambda_2 comes from the eigenvalues alone (eigvalsh) and the vector from
    inverse iteration, one or two solves of (L - lambda_2 I) x = b
    (_fiedler_by_solves); where the solves cannot pin the vector down (no
    lambda_3, lambda_3 - lambda_2 within rounding, or a singular solve) it
    comes from the full eigendecomposition (eigh). The sign is fixed so the
    first component larger than tol in magnitude is positive. The residual
    ||L v - lambda_2 v||_inf is checked against tol; lambda_2 is recoverable
    as v @ L @ v. A graph over DENSE_SIZE_LIMIT vertices raises ValueError
    before the dense Laplacian is built.
    """
    if graph.n < 2:
        raise GraphValidationError(f"Fiedler vector needs at least two vertices, got {graph.n}")
    if not is_connected(graph):
        raise NotConnectedError("Fiedler vector needs a connected graph")
    _check_dense_size(graph, "Fiedler vector")
    lap = laplacian_matrix(graph)
    eigenvalues = np.linalg.eigvalsh(lap)
    lam2 = float(eigenvalues[1])
    v = _fiedler_by_solves(lap, eigenvalues)
    if v is None:
        lap.flat[:: graph.n + 1] = np.diff(graph._csr[0])  # undo the solves' shift
        v = np.linalg.eigh(lap)[1][:, 1].copy()
        v /= np.linalg.norm(v)
    indptr, indices = graph._csr
    lap_v = np.diff(indptr) * v - np.add.reduceat(v[indices], indptr[:-1])
    residual = float(np.max(np.abs(lap_v - lam2 * v)))
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


def _fiedler_by_solves(lap: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray | None:
    """The unit lambda_2 eigenvector by inverse iteration, or None.

    Shifts lap's diagonal by lambda_2 in place and solves (L - lambda_2 I) y
    = b from a fixed start b with no constant part, then from y / ||y||.
    After a solve, every other eigenvector's share of y is at most
    1 / (gap * ||y||), gap = min(lambda_2, lambda_3 - lambda_2) being the
    distance from lambda_2 to the rest of the spectrum. A share below
    _FIEDLER_SHARE is accepted. None if there is no lambda_3, if gap is
    within rounding (n * eps * lambda_max), if a solve is singular, or if
    the share is still above after two solves.
    """
    n = len(eigenvalues)
    if n < 3:
        return None
    lam2 = eigenvalues[1]
    gap = min(lam2, eigenvalues[2] - lam2)
    if gap <= n * np.finfo(float).eps * eigenvalues[-1]:
        return None
    lap.flat[:: n + 1] -= lam2
    x = np.cos(np.arange(n))
    x -= x.mean()
    x /= np.linalg.norm(x)
    for _ in range(2):
        try:
            x = np.linalg.solve(lap, x)
        except np.linalg.LinAlgError:  # singular
            return None
        norm = float(np.linalg.norm(x))
        if not norm < np.inf:  # overflowed
            return None
        x /= norm
        if gap * norm * _FIEDLER_SHARE > 1.0:
            return x
    return None
