"""Triangle importance rankings and connectivity experiments.

Two triangle indices are provided: the score-sum importance (the sum of the
three vertex centrality scores) and the Fiedler cycle index (the sum of
squared Fiedler-vector differences over the triangle's three edges). Removing
the vertices of a highly ranked triangle tends to fragment the network, which
removal_experiment quantifies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .centrality import fiedler_vector
from .graph import Graph, TriangleSet, connected_components, remove_vertices
from .report import CentralityReport, competition_rank, label_positions, label_sort_key

TRIANGLE_TIE_TOL = 1e-12


@dataclass(frozen=True)
class RankedTriangle:
    vertices: tuple[str, str, str]
    score: float
    rank: int


@dataclass(frozen=True, eq=False)
class TriangleRanking:
    """Triangles ordered by non-increasing score under a named index.

    Ranks are competition ranks: scores equal within the tie tolerance share
    the smallest rank of their block and the next distinct score skips the
    swallowed positions ("1, 2, 2, 2, 5").
    """

    index: str
    params: dict
    entries: tuple[RankedTriangle, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def top(self, k: int) -> list[tuple[str, str, str]]:
        return [e.vertices for e in self.entries[:k]]

    def score_of(self, vertices: Sequence[str]) -> float:
        want = tuple(sorted(vertices, key=label_sort_key))
        for e in self.entries:
            if tuple(sorted(e.vertices, key=label_sort_key)) == want:
                return e.score
        raise KeyError(f"triangle {want} not in ranking")

    def rank_of(self, vertices: Sequence[str]) -> int:
        want = tuple(sorted(vertices, key=label_sort_key))
        for e in self.entries:
            if tuple(sorted(e.vertices, key=label_sort_key)) == want:
                return e.rank
        raise KeyError(f"triangle {want} not in ranking")


def _rank_triangles(
    index: str,
    params: Mapping[str, object],
    graph: Graph,
    triangles: TriangleSet,
    scores: np.ndarray,
    tie_tol: float,
) -> TriangleRanking:
    """Rank triangles by descending score, ties by their label-sorted triples."""
    pos = label_positions(graph.labels)
    by_pos = np.empty(graph.n, dtype=object)
    by_pos[pos] = graph.labels
    corners = np.sort(pos[triangles.triangle_array], axis=1)
    order, _, rank = competition_rank(scores, tuple(corners.T), tie_tol)
    entries = tuple(
        RankedTriangle(tuple(triple), s, r)
        for triple, s, r in zip(
            by_pos[corners[order]].tolist(), scores[order].tolist(), rank.tolist()
        )
    )
    return TriangleRanking(index=index, params=dict(params), entries=entries)


def triangle_importance(
    graph: Graph,
    triangles: TriangleSet,
    scores: np.ndarray | CentralityReport,
    *,
    tie_tol: float = TRIANGLE_TIE_TOL,
) -> TriangleRanking:
    """Rank triangles by the sum of their three vertices' centrality scores.

    scores is a positive per-vertex vector in internal id order (or a
    CentralityReport, typically from atec). The ranking is invariant under
    positive rescaling of the scores; the printed values are not.
    """
    params: dict[str, object] = {}
    if isinstance(scores, CentralityReport):
        params.update(scores.params)
        scores = scores.scores
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (graph.n,):
        raise ValueError("score vector does not match the graph")
    if len(triangles) == 0:
        warnings.warn("graph has no triangles; importance ranking is empty")
        return TriangleRanking("triangle-importance", params, ())
    tri = triangles.triangle_array
    sums = scores[tri[:, 0]] + scores[tri[:, 1]] + scores[tri[:, 2]]
    return _rank_triangles("triangle-importance", params, graph, triangles, sums, tie_tol)


def cycle_index_fiedler(
    graph: Graph,
    triangles: TriangleSet,
    *,
    tol: float = 1e-8,
    tie_tol: float = TRIANGLE_TIE_TOL,
) -> TriangleRanking:
    """Rank triangles by sum of squared Fiedler-vector differences over their edges.

    I_c = (x_p - x_q)^2 + (x_p - x_r)^2 + (x_q - x_r)^2 with x the Fiedler
    vector; the squared differences make the Fiedler sign ambiguity harmless.
    Zero exactly when the Fiedler vector is constant on the triangle.
    """
    if len(triangles) == 0:
        warnings.warn("graph has no triangles; cycle-index ranking is empty")
        return TriangleRanking("cycle-index", {}, ())
    x = fiedler_vector(graph, tol=tol)
    tri = triangles.triangle_array
    p, q, r = x[tri[:, 0]], x[tri[:, 1]], x[tri[:, 2]]
    scores = (p - q) ** 2 + (p - r) ** 2 + (q - r) ** 2
    return _rank_triangles("cycle-index", {}, graph, triangles, scores, tie_tol)


@dataclass(frozen=True)
class RemovalResult:
    """Connectivity before and after deleting a vertex set."""

    removed: tuple[str, ...]
    components_before: int
    components_after: int
    sizes_before: tuple[int, ...]
    sizes_after: tuple[int, ...]

    @property
    def summary(self) -> str:
        return f"components: {self.components_before} -> {self.components_after}"


def removal_experiment(graph: Graph, remove: Sequence[str]) -> RemovalResult:
    """Delete the named vertices and recount connected components.

    Component size lists are sorted descending. Unknown labels raise.
    """
    before = connected_components(graph)
    reduced = remove_vertices(graph, remove)
    after = connected_components(reduced)
    return RemovalResult(
        removed=tuple(remove),
        components_before=len(before),
        components_after=len(after),
        sizes_before=tuple(sorted((len(c) for c in before), reverse=True)),
        sizes_after=tuple(sorted((len(c) for c in after), reverse=True)),
    )


RANK_TIE_TOL = 1e-9


def _average_ranks(values: np.ndarray, tol: float) -> list[Fraction]:
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


def _pearson_of_ranks(ra: Sequence[Fraction], rb: Sequence[Fraction]) -> float:
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


def _pearson_of_scores(a: np.ndarray, b: np.ndarray) -> float:
    da = a - a.mean()
    db = b - b.mean()
    num = float(np.dot(da, db))
    saa = float(np.dot(da, da))
    sbb = float(np.dot(db, db))
    if saa == 0.0 or sbb == 0.0:
        raise ValueError("correlation is undefined for a constant score vector")
    if saa == sbb:
        return num / saa
    return num / math.sqrt(saa * sbb)


def _kendall_tau_b(a: np.ndarray, b: np.ndarray, tol: float) -> float:
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


def rank_correlation(
    a: CentralityReport | np.ndarray,
    b: CentralityReport | np.ndarray,
    method: str = "spearman",
    *,
    tie_tol: float = RANK_TIE_TOL,
) -> float:
    """Correlation between two score vectors over the same vertex set.

    pearson correlates the raw scores; spearman and kendall correlate the
    rankings, tie-corrected (average ranks / tau-b) with ties detected up to
    tie_tol. Rank arithmetic is exact, so two measures that induce the same
    ranking correlate at exactly 1.0. Reports are aligned by label; a
    constant vector has no defined correlation and raises.
    """
    if isinstance(a, CentralityReport) and isinstance(b, CentralityReport):
        if set(a.labels) != set(b.labels):
            raise ValueError("reports cover different vertex sets")
        order = {lab: i for i, lab in enumerate(b.labels)}
        xa = np.asarray(a.scores, dtype=float)
        xb = np.asarray([b.scores[order[lab]] for lab in a.labels], dtype=float)
    else:
        xa = a.scores if isinstance(a, CentralityReport) else np.asarray(a, dtype=float)
        xb = b.scores if isinstance(b, CentralityReport) else np.asarray(b, dtype=float)
        if xa.shape != xb.shape:
            raise ValueError("score vectors differ in length")
    if np.ptp(xa) == 0 or np.ptp(xb) == 0:
        raise ValueError("correlation is undefined for a constant score vector")
    if method == "pearson":
        return _pearson_of_scores(xa, xb)
    if method == "spearman":
        return _pearson_of_ranks(_average_ranks(xa, tie_tol), _average_ranks(xb, tie_tol))
    if method == "kendall":
        return _kendall_tau_b(xa, xb, tie_tol)
    raise ValueError(f"unknown method {method!r}; use pearson, spearman or kendall")
