"""The alpha-triangle operator and its spectral solver.

For an undirected graph with edge set E and triangle set V_tri, the order-3
tensor A = alpha * A_E + (1 - alpha) * A_tri acts on a vector x through

    (A x^2)_i = alpha * sum_{{i,j} in E} x_j^2
              + (1 - alpha) * sum_{{i,j,k} in V_tri} x_j * x_k,

where the edge tensor has b_ijk = 1 when {i,j} in E and k = j, and the
triangle tensor has value 1/2 at all six index permutations of each triangle.
The spectral radius rho and its positive eigenvector x (A x^2 = rho x^[2],
x^[2] the componentwise square) are found by the Ng-Qi-Zhou power iteration
with an additive diagonal shift, which converges for every weakly irreducible
nonnegative tensor. For alpha in (0, 1] the tensor's digraph is the graph's
symmetric adjacency, so it is weakly irreducible exactly when the graph is
connected: the operator builds on any graph, and solve_spectral (so atec)
refuses a disconnected one. Anderson mixing of depth _ANDERSON_DEPTH (Walker & Ni,
SIAM J. Numer. Anal. 49, 2011) extrapolates the power map from its recent
iterates, which roughly halves the iterations of a sweep; a mixed iterate
that leaves the positive orthant falls back to the plain step. The
Collatz-Wielandt bracket of every iterate encloses rho and decides when to
stop, whichever way the iterate was made. The same kernel, run at order 2 on
the adjacency matrix, computes eigenvector centrality. At depth 0 it is the
plain power iteration, bitwise equal to the loops in the test suite's
oracles.

The tensor is never materialized. The operator's entries are the 2m edge
entries (i, j, j) and the 6T triangle entries (i, j, k), (i, k, j). apply()
sums every row as 0.0 + t_0 + t_1 + ... over its entries in ascending
(j, k) order, so it is bitwise equal to a naive triple-loop contraction of
the dense tensor (the test suite's oracle). Each term is (c * x_j) * x_k
with c = alpha for an edge entry (j == k) and (1 - alpha) / 2 otherwise, so
apply() gathers c * x_j from the vector [alpha * x, (1 - alpha) / 2 * x] and
stores no per-entry coefficient. The entries are kept in jagged-diagonal
storage (Saad, 1989): rows ordered by descending entry count, and slice t
holding the t-th entry of every row with more than t entries. Those rows
come first in that order, so a slice is one contiguous add. Slices exist
while at least _SLICE_MIN_ROWS rows reach them; each row's later entries
follow, in order, through np.add.at. The build sorts the entries once on
the int64 key that packs the row's place in that order, j and k into b bits
each (b the bit length of n - 1), gathers each slice from the sorted keys
and unpacks j and k with shifts and masks. Keys take 3b bits, so the
operator accepts at most MAX_VERTICES = 2 097 151 vertices (n^3 < 2^63, and
b <= 21). Nothing in the layout depends on alpha: a graph keeps the
read-only layout of its own triangle listing, so the operators of an alpha
sweep share one and each costs O(1) to build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import Graph, TriangleSet, enumerate_triangles
from .report import CentralityReport, make_report

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000
DEFAULT_SHIFT = 1.0
MAX_VERTICES = 2**21 - 1  # largest n with n^3 < 2^63, so int64 entry keys cannot wrap
# apply() works through its entries in blocks of this many, a slice longer
# than a block taking several, so each float temporary is 64 KiB: below
# glibc's initial and lowest mmap threshold (128 KiB), it comes from the heap
# instead of a fresh mmap that faults its pages in. Temporaries of the full
# entry length ran at full speed or about 1.6x slower, depending on what
# earlier allocations did to that threshold. The layout is cut into blocks
# when it is built.
_APPLY_BLOCK = 8192
# Fewest rows a slice of the layout may cover. Shorter slices cost more numpy
# calls than they save (apply() time was flat from 128 to 1024 rows on a
# 20 000-vertex graph); every entry past the last slice goes through
# np.add.at, so graphs with fewer vertices never take the slice path.
_SLICE_MIN_ROWS = 1024
# Anderson mixing depth of the Perron solver; 0 runs the plain power iteration
_ANDERSON_DEPTH = 5
# A tol at most this fraction (16 ulps) of the shifted bracket's lower end is
# rounding noise, which a bracket of computed ratios that all round alike meets
# by chance (width 0); so tolerances below about 4e-15 * (rho + 1) are refused.
_ROUNDING_FLOOR = 2.0**-48


class AlphaDomainError(ValueError):
    """alpha outside the permitted interval (0, 1]."""


class NotConnectedError(ValueError):
    """Operation requires a connected graph (unique positive eigenvector)."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the final eigenvalue bracket."""

    def __init__(self, message: str, bracket: tuple[float, float], iterations: int):
        super().__init__(message)
        self.bracket = bracket
        self.iterations = iterations


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise AlphaDomainError(
            f"alpha must lie in (0, 1], got {alpha}; alpha = 0 would zero out "
            "vertices that sit in no triangle"
        )
    return alpha


class AlphaTriangleOperator:
    """Matrix-free x -> A x^2 for the alpha-triangle tensor of any graph;
    solve_spectral is where a disconnected graph is refused.

    Immutable after construction and safe to share across threads. apply()
    is order-2 homogeneous: op(t*x) = t^2 * op(x) for t >= 0.
    """

    def __init__(self, graph: Graph, triangles: TriangleSet, alpha: float):
        self.alpha = _check_alpha(alpha)
        if graph.n > MAX_VERTICES:
            raise ValueError(
                f"graph has {graph.n} vertices; the operator's int64 entry keys "
                f"support at most {MAX_VERTICES}"
            )
        self.graph = graph
        self.triangles = triangles
        self.n = graph.n
        self._layout = _operator_layout(graph, triangles)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """(A x^2)_i, accumulated per component in ascending (j, k) order."""
        x = np.asarray(x, dtype=float)
        n = self.n
        if x.shape != (n,):
            raise ValueError(f"expected a vector of length {n}, got shape {x.shape}")
        scaled = np.empty(2 * n)  # c * x_j for an edge entry, then for a triangle entry
        np.multiply(x, self.alpha, out=scaled[:n])
        np.multiply(x, (1.0 - self.alpha) * 0.5, out=scaled[n:])
        layout = self._layout
        out = np.zeros(n)  # rows in the layout's order
        for jj, kk, adds in layout.slices:
            terms = scaled[jj]
            terms *= x[kk]
            for u, v, s, e in adds:
                part = out[s:e]
                np.add(part, terms[u:v], out=part)
        for jj, kk, rows in layout.tail:
            terms = scaled[jj]
            terms *= x[kk]
            np.add.at(out, rows, terms)
        return out[layout.position]


class _Layout(NamedTuple):
    """An operator's alpha-free entries in jagged-diagonal storage.

    Rows are laid out by descending entry count (a stable sort); vertex i's
    row is row position[i] of the layout. Entry (i, j, k) is held as jj = j
    + n * [j != k], the index of c * x_j in apply()'s scaled vector, and kk
    = k. slices holds (jj, kk, adds) blocks of slice entries; each (u, v, s,
    e) in adds sums the block's terms u:v into rows s:e. tail holds (jj, kk,
    rows) blocks of every entry past the last slice, row by row and each
    row's in (j, k) order. Every array is read-only and no block is longer
    than _APPLY_BLOCK.
    """

    position: np.ndarray
    slices: tuple[tuple[np.ndarray, np.ndarray, tuple[tuple[int, int, int, int], ...]], ...]
    tail: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _operator_layout(graph: Graph, triangles: TriangleSet) -> _Layout:
    """The operator's read-only, alpha-free layout (see _Layout).

    The graph keeps the layout of its own listing, found in its __dict__ so
    that the check never lists; any other TriangleSet gets its own layout.
    """
    cache = vars(graph)
    own = cache.get("_triangles") is triangles
    if own and "_operator_layout" in cache:
        return cache["_operator_layout"]
    n = graph.n
    edges, tris = graph.edge_array, triangles.triangle_array
    # a row holds one entry per neighbour and two per triangle through it
    counts = np.bincount(edges.ravel(), minlength=n)
    counts += 2 * np.bincount(tris.ravel(), minlength=n)
    order = np.argsort(-counts, kind="stable")
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n)
    reach = n - np.cumsum(np.bincount(counts))  # reach[t]: rows with more than t entries
    reach = reach[: np.count_nonzero(reach >= _SLICE_MIN_ROWS)]  # reach never rises
    first = np.concatenate(([0], np.cumsum(reach))).tolist()  # slice t's first entry

    bits = max(n - 1, 1).bit_length()
    mask = (1 << bits) - 1
    u, v = edges.T
    p, q, r = tris.T
    keys = np.concatenate([
        (position[i] << bits | j) << bits | k
        for i, j, k in (
            (u, v, v), (v, u, u),
            (p, q, r), (p, r, q), (q, p, r), (q, r, p), (r, p, q), (r, q, p),
        )
    ])
    keys.sort()  # by layout row, then j, then k
    row_start = np.cumsum(counts[order]) - counts[order]
    laid = np.empty_like(keys)  # the slices, then the tail
    in_tail = np.ones(len(keys), dtype=bool)
    for t, (start, stop) in enumerate(zip(first, first[1:])):
        entry = row_start[: stop - start] + t  # the t-th entry of rows 0:stop-start
        laid[start:stop] = keys[entry]
        in_tail[entry] = False
    total = first[-1]
    np.compress(in_tail, keys, out=laid[total:])
    # at most two entry-length arrays live at once: a larger build transient
    # stayed resident and raised the peak memory of a whole sweep
    del keys, in_tail
    tail_rows = (laid[total:] >> 2 * bits).astype(np.intp, copy=False)
    kk = (laid & mask).astype(np.intp, copy=False)
    laid >>= bits
    laid &= mask
    jj = laid.astype(np.intp, copy=False)
    np.add(jj, n, out=jj, where=jj != kk)

    for arr in (position, jj, kk, tail_rows):
        arr.setflags(write=False)
    block = _APPLY_BLOCK
    adds = [[] for _ in range(0, total, block)]
    for start, stop in zip(first, first[1:]):
        # slice [start, stop) fills rows 0:stop-start; cut it where blocks are cut
        cuts = [start, *range(start - start % block + block, stop, block), stop]
        for a, b in zip(cuts, cuts[1:]):
            adds[a // block].append((a % block, a % block + b - a, a - start, b - start))
    layout = _Layout(
        position,
        tuple(
            (jj[a : a + block], kk[a : a + block], tuple(block_adds))
            for a, block_adds in zip(range(0, total, block), adds)
        ),
        tuple(
            (jj[a : a + block], kk[a : a + block], tail_rows[a - total : a - total + block])
            for a in range(total, len(jj), block)
        ),
    )
    return cache.setdefault("_operator_layout", layout) if own else layout


def build_operator(graph: Graph, triangles: TriangleSet, alpha: float) -> AlphaTriangleOperator:
    """The implicit alpha-triangle operator of a graph; solving needs it connected."""
    return AlphaTriangleOperator(graph, triangles, alpha)


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Converged spectral-radius estimate with its positive unit eigenvector.

    bracket is the final (lambda_min, lambda_max) enclosure of rho for the
    unshifted operator; rho is its midpoint. residual is the max-norm of
    A x^2 - rho * x^[2].
    """

    rho: float
    x: np.ndarray
    iterations: int
    residual: float
    bracket: tuple[float, float]


def solve_spectral(
    op: AlphaTriangleOperator,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    x0: np.ndarray | None = None,
) -> SpectralResult:
    """Shifted higher-order power iteration for rho(A) and its eigenvector.

    The power step is y = A x^2 + shift * x^[2]; x <- sqrt(y) / ||sqrt(y)||_2,
    and Anderson mixing over the last _ANDERSON_DEPTH steps extrapolates from
    it (see _shifted_power). The Collatz-Wielandt ratios y_i / x_i^2 of any
    positive x bracket rho + shift from both sides; iteration stops when the
    current iterate's bracket is narrower than tol. The reported bracket is
    the running intersection of all iterates' brackets, which narrows
    monotonically, and rho is its midpoint. Raises ConvergenceError with that
    bracket if the budget runs out or tol is within rounding of rho + shift,
    and NotConnectedError, before iterating, when op.graph is disconnected.
    """
    ncomp = len(op.graph._components)
    if ncomp != 1:
        raise NotConnectedError(
            f"graph has {ncomp} components; the positive eigenvector is only "
            "unique on connected graphs (solve per component)"
        )
    return _shifted_power(op, 3, tol=tol, max_iter=max_iter, x0=x0)


def _shifted_power(
    op,
    order: int,
    *,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    x0: np.ndarray | None = None,
) -> SpectralResult:
    """Perron pair of a nonnegative matrix (order 2) or order-3 tensor.

    op has a length n and an apply(x) that is homogeneous of degree
    order - 1: A x for a matrix, A x^2 for the tensor. Each step forms
    y = op.apply(x) + DEFAULT_SHIFT * x^[order-1]; min and max of y /
    x^[order-1], less the shift, bracket the spectral radius; iteration stops
    once it is narrower than tol; a tol <= _ROUNDING_FLOOR * (lo + shift) is
    refused at once. The power step g(x) is the unit (order - 1)-th root of y.

    With _ANDERSON_DEPTH > 0 (read at call time) the next iterate is the
    Anderson mix of g(x) with the last depth steps (_AndersonMixer). A mixed
    iterate with a nonpositive entry is replaced by g(x) and the history
    restarts. Every positive iterate's bracket encloses the radius, so the
    reported bracket is the running intersection (max lo, min hi), and rho is
    its midpoint. With depth 0 the iterate is g(x) and the bracket the current
    one: the plain shifted power iteration.

    Each iteration makes exactly one op.apply call, looked up on the
    instance, so a wrapper assigned to the instance sees every product; the
    residual reuses the last one.
    """
    n = op.n
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

    depth = _ANDERSON_DEPTH
    mixer = _AndersonMixer(n, depth) if depth else None
    bracket = (-np.inf, np.inf)
    for iteration in range(1, max_iter + 1):
        x_pow = x if order == 2 else x * x  # x^[order-1]
        ax = op.apply(x)
        y = ax + DEFAULT_SHIFT * x_pow
        if np.any(y <= 0):
            raise RuntimeError(
                "nonpositive iterate component: operator is not weakly "
                "irreducible (disconnected input?) or the seed was invalid"
            )
        ratios = y / x_pow
        lo = float(ratios.min()) - DEFAULT_SHIFT
        hi = float(ratios.max()) - DEFAULT_SHIFT
        if mixer is None:
            bracket = (lo, hi)
        else:  # every positive iterate encloses rho, so their intersection does
            bracket = (max(bracket[0], lo), min(bracket[1], hi))
        if tol <= _ROUNDING_FLOOR * (lo + DEFAULT_SHIFT):
            raise ConvergenceError(
                f"no convergence: tol {tol:.3e} is within rounding of the bracket "
                f"[{bracket[0]:.10g}, {bracket[1]:.10g}] at iteration {iteration}",
                bracket=bracket,
                iterations=iteration,
            )
        if hi - lo < tol:
            rho = 0.5 * (bracket[0] + bracket[1])
            residual = float(np.max(np.abs(ax - rho * x_pow)))
            return SpectralResult(
                rho=rho,
                x=x,
                iterations=iteration,
                residual=residual,
                bracket=bracket,
            )
        gx = y if order == 2 else np.sqrt(y)
        gx /= np.linalg.norm(gx)
        x = gx if mixer is None else mixer.mix(x, gx)

    raise ConvergenceError(
        f"no convergence after {max_iter} iterations; bracket width "
        f"{bracket[1] - bracket[0]:.3e} > tol {tol:.3e}",
        bracket=bracket,
        iterations=max_iter,
    )


class _AndersonMixer:
    """Anderson mixing (Walker & Ni 2011) of the fixed-point map x -> g(x).

    Keeps the last `depth` differences of the residuals f = g(x) - x and of
    the map values g(x) in ring buffers of 2 * depth vectors, and the Gram
    matrix of the residual differences, of which a new difference adds one
    row and column. The mixed iterate is g(x) - dG gamma with gamma solving
    the normal equations of min ||f - dF gamma||_2.
    """

    def __init__(self, n: int, depth: int):
        self.depth = depth
        self.df = np.empty((depth, n))
        self.dg = np.empty((depth, n))
        self.gram = np.empty((depth, depth))
        self.count = 0  # differences stored since the last restart
        self.f = self.g = None  # the previous step's residual and map value

    def mix(self, x: np.ndarray, gx: np.ndarray) -> np.ndarray:
        """The next unit iterate after x; gx = g(x) when mixing would leave
        the positive orthant, and then the history restarts."""
        f = gx - x
        if self.f is not None:
            slot = self.count % self.depth
            np.subtract(f, self.f, out=self.df[slot])
            np.subtract(gx, self.g, out=self.dg[slot])
            self.count += 1
            k = min(self.count, self.depth)
            row = self.df[:k] @ self.df[slot]
            self.gram[slot, :k] = row
            self.gram[:k, slot] = row
        self.f, self.g = f, gx
        k = min(self.count, self.depth)
        if k == 0:
            return gx
        try:
            gamma = np.linalg.solve(self.gram[:k, :k], self.df[:k] @ f)
        except np.linalg.LinAlgError:  # exactly singular: a repeated difference
            self.count = 0
            return gx
        mixed = gx - gamma @ self.dg[:k]
        if not np.all(mixed > 0):  # NaN entries count as nonpositive
            self.count = 0
            return gx
        mixed /= np.linalg.norm(mixed)
        return mixed


def atec(
    graph: Graph,
    alpha: float,
    *,
    triangles: TriangleSet | None = None,
    tol: float = DEFAULT_TOL,
) -> CentralityReport:
    """Alpha-triangle eigenvector centrality of a connected graph.

    Scores are the entries of the positive unit-Euclidean eigenvector of the
    alpha-triangle tensor at its spectral radius; larger alpha weighs edge
    structure more, smaller alpha weighs triangle structure more.
    """
    if triangles is None:
        triangles = enumerate_triangles(graph)
    op = build_operator(graph, triangles, alpha)
    result = solve_spectral(op, tol=tol)
    return make_report(
        "atec",
        {"alpha": op.alpha},
        graph.labels,
        result.x,
        normalization="unit-euclidean",
        meta={
            "rho": result.rho,
            "iterations": result.iterations,
            "residual": result.residual,
            "tolerance": tol,
        },
    )


def atec_per_component(
    graph: Graph,
    alpha: float,
    *,
    tol: float = DEFAULT_TOL,
) -> CentralityReport:
    """atec computed independently on every connected component.

    Each component's score block has unit Euclidean norm on its own, so an
    isolated vertex scores 1.0 and a single edge scores 0.7071 per endpoint.
    Rankings mix all components.
    """
    components = graph._components
    # a connected graph is its own component; a disconnected one keeps its subgraphs
    subgraphs = (graph,) if len(components) == 1 else graph._component_subgraphs
    scores = np.zeros(graph.n)
    total_iters = 0
    worst_residual = 0.0
    for comp, sub in zip(components, subgraphs):
        op = build_operator(sub, enumerate_triangles(sub), alpha)
        res = solve_spectral(op, tol=tol)
        scores[comp] = res.x
        total_iters += res.iterations
        worst_residual = max(worst_residual, res.residual)
    return make_report(
        "atec",
        {"alpha": _check_alpha(alpha)},
        graph.labels,
        scores,
        normalization="unit-euclidean-per-component",
        meta={
            "components": len(components),
            "iterations": total_iters,
            "residual": worst_residual,
            "tolerance": tol,
        },
    )
