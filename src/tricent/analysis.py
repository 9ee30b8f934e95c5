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
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .centrality import fiedler_vector
from .graph import Graph, TriangleSet, remove_vertices
from .report import (
    VERTEX_TIE_TOL,
    CentralityReport,
    RankingView,
    _require_finite,
    competition_rank,
    label_positions,
    label_sort_key,
)

TRIANGLE_TIE_TOL = 1e-12


class RankedTriangle(NamedTuple):
    vertices: tuple[str, str, str]
    score: float
    rank: int


@dataclass(frozen=True, eq=False)
class TriangleRanking:
    """Triangles ordered by non-increasing score under a named index.

    Ranks are competition ranks: scores equal within the tie tolerance share
    the smallest rank of their block and the next distinct score skips the
    swallowed positions ("1, 2, 2, 2, 5"). Inside a block, entries follow
    their label-sorted triples in label_sort_key order, not their scores.
    entries is a RankingView of RankedTriangle rows over the unsorted scores,
    the TriangleSet's triangle_array and the graph's labels, with the columns
    v1, v2, v3 (each triple label-sorted), score and rank.
    """

    index: str
    params: dict
    entries: RankingView

    def __len__(self) -> int:
        return len(self.entries)

    def top(self, k: int) -> list[tuple[str, str, str]]:
        """The triples of the first k rows; a negative k raises ValueError."""
        if k < 0:
            raise ValueError(f"top needs k >= 0, got {k}")
        return [row.vertices for row in self.entries[:k]]

    @cached_property
    def _by_triple(self) -> dict[tuple[str, str, str], int]:
        # Position of each triple, filled back to front so the first one wins.
        triples = zip(*(column[::-1].tolist() for column in self.entries.columns[:3]))
        return dict(zip(triples, range(len(self) - 1, -1, -1)))

    def _entry(self, vertices: Sequence[str]) -> RankedTriangle:
        want = tuple(sorted(vertices, key=label_sort_key))
        try:
            return self.entries[self._by_triple[want]]
        except KeyError:
            raise KeyError(f"triangle {want} not in ranking") from None

    def score_of(self, vertices: Sequence[str]) -> float:
        return self._entry(vertices).score

    def rank_of(self, vertices: Sequence[str]) -> int:
        return self._entry(vertices).rank


def _rank_triangles(
    index: str,
    params: Mapping[str, object],
    graph: Graph,
    triangles: TriangleSet,
    scores: np.ndarray,
    tie_tol: float,
) -> TriangleRanking:
    """Rank triangles by descending score, ties by their label-sorted triples;
    a NaN or infinite score raises ValueError."""
    _require_finite(scores, f"index {index!r}")
    pos = label_positions(graph.labels)
    tri = triangles.triangle_array
    order, starts = competition_rank(scores, tuple(np.sort(pos[tri], axis=1).T), tie_tol)
    view = RankingView(_ranked_triangle, order, starts, scores, graph.labels, (tri, pos))
    return TriangleRanking(index, dict(params), view)


def _ranked_triangle(v1: str, v2: str, v3: str, score: float, rank: int) -> RankedTriangle:
    return RankedTriangle((v1, v2, v3), score, rank)


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
        return _rank_triangles("cycle-index", {}, graph, triangles, np.empty(0), tie_tol)
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
    before = graph._components
    after = remove_vertices(graph, remove)._components
    return RemovalResult(
        removed=tuple(remove),
        components_before=len(before),
        components_after=len(after),
        sizes_before=tuple(sorted((len(c) for c in before), reverse=True)),
        sizes_after=tuple(sorted((len(c) for c in after), reverse=True)),
    )


# Rows of a Kendall block hold at most this many pairwise differences, so each
# float64 temporary stays within 512 KiB.
_PAIR_BLOCK = 1 << 16

# Longest vector spearman accepts: doubled ranks stay <= 2**31, so every rank
# product fits in int64 and the chunked dot products below cannot wrap.
_MAX_RANKED = 1 << 30

_INT64_MAX = int(np.iinfo(np.int64).max)


def _doubled_average_ranks(values: np.ndarray, tol: float) -> np.ndarray:
    """Twice the descending average ranks; values within tol (chained) share a rank.

    A group of k values with competition rank p has average rank
    p + (k - 1)/2, so doubling keeps every rank an integer: 2p + k - 1.
    """
    order, starts = competition_rank(values, (), tol)
    sizes = np.diff(starts, append=len(values))
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[order] = np.repeat(2 * starts + sizes + 1, sizes)
    return ranks


def _exact_dot(x: np.ndarray, y: np.ndarray) -> int:
    """sum(x * y) of nonnegative int64 vectors as a Python int, never wrapping."""
    step = max(1, _INT64_MAX // (int(x.max()) * int(y.max())))
    return sum(int(np.dot(x[s : s + step], y[s : s + step])) for s in range(0, len(x), step))


def _spearman(a: np.ndarray, b: np.ndarray, tol: float) -> float:
    """Pearson correlation of the average ranks, in exact integer arithmetic.

    The ranks are doubled, which scales num, da and db by 4: the int
    quotient num / da, rounded once from the exact rational, cancels it, and
    the float quotient is unchanged by power-of-two scaling.
    They are descending ranks, 2(n + 1) minus the ascending ones, and that
    shift and flip on both sides leaves num, da and db the same integers.
    """
    n = len(a)
    if n > _MAX_RANKED:
        raise ValueError(f"spearman takes at most {_MAX_RANKED} scores, got {n}")
    ra = _doubled_average_ranks(a, tol)
    rb = _doubled_average_ranks(b, tol)
    sa, sb = int(ra.sum()), int(rb.sum())
    num = n * _exact_dot(ra, rb) - sa * sb
    da = n * _exact_dot(ra, ra) - sa * sa
    db = n * _exact_dot(rb, rb) - sb * sb
    if da == 0 or db == 0:
        raise ValueError("correlation is undefined: all scores tie on one side")
    if da == db:
        return num / da  # rounded once from the exact rational: perfect agreement is exactly +-1
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
    """Kendall tau-b; a pair ties on one side when its difference is within tol.

    Row blocks of the full difference matrix d[i, j] = a[i] - a[j] are
    scanned. Since a[j] - a[i] == -(a[i] - a[j]) exactly, every pair untied
    on a shows up once with d > tol: counting those cells counts the pairs
    untied on a, and splitting them by the sign of b's difference counts the
    concordant and discordant pairs; a pair tied on either side is neither.
    """
    n = len(a)
    rows = max(1, _PAIR_BLOCK // n)
    concordant = discordant = untied_a = untied_b = 0
    for s in range(0, n, rows):
        da = a[s : s + rows, None] - a
        db = b[s : s + rows, None] - b
        up_a = da > tol
        up_b = db > tol
        untied_a += int(np.count_nonzero(up_a))
        untied_b += int(np.count_nonzero(up_b))
        concordant += int(np.count_nonzero(up_a & up_b))
        discordant += int(np.count_nonzero(up_a & (db < -tol)))
    if untied_a == 0 or untied_b == 0:
        raise ValueError("correlation is undefined: all scores tie on one side")
    if untied_a == untied_b:
        return (concordant - discordant) / untied_a
    return (concordant - discordant) / math.sqrt(untied_a * untied_b)


def rank_correlation(
    a: CentralityReport | np.ndarray,
    b: CentralityReport | np.ndarray,
    method: str = "spearman",
    *,
    tie_tol: float = VERTEX_TIE_TOL,
) -> float:
    """Correlation between two score vectors over the same vertex set.

    pearson correlates the raw scores; spearman and kendall correlate the
    rankings, tie-corrected (average ranks / tau-b) with ties detected up to
    tie_tol. The two detect ties differently, on purpose: spearman sorts the
    scores and chains neighbours within tie_tol into one tie group, by the
    competition_rank that vertex rankings use, while kendall tests each pair
    on its own, so a pair ties only when its two scores lie within tie_tol.
    Rank arithmetic is exact, so two measures that induce the same ranking
    correlate at exactly 1.0, and swapping a and b gives the same value.
    Reports are aligned by label. A constant vector has no defined
    correlation and raises, as do NaN or infinite scores, a negative or NaN
    tie_tol and, for spearman, more than 2**30 scores.
    """
    if not tie_tol >= 0:
        raise ValueError(f"tie_tol must be nonnegative, got {tie_tol}")
    if isinstance(a, CentralityReport) and isinstance(b, CentralityReport):
        xa = np.asarray(a.scores, dtype=float)
        if a.labels == b.labels:  # reports of one graph: already aligned
            xb = np.asarray(b.scores, dtype=float)
        else:
            if set(a.labels) != set(b.labels):
                raise ValueError("reports cover different vertex sets")
            order = {lab: i for i, lab in enumerate(b.labels)}
            xb = np.asarray([b.scores[order[lab]] for lab in a.labels], dtype=float)
    else:
        xa = a.scores if isinstance(a, CentralityReport) else np.asarray(a, dtype=float)
        xb = b.scores if isinstance(b, CentralityReport) else np.asarray(b, dtype=float)
        if xa.shape != xb.shape:
            raise ValueError("score vectors differ in length")
    if not (np.isfinite(xa).all() and np.isfinite(xb).all()):
        raise ValueError("correlation is undefined for NaN or infinite scores")
    if np.ptp(xa) == 0 or np.ptp(xb) == 0:
        raise ValueError("correlation is undefined for a constant score vector")
    if method == "pearson":
        return _pearson_of_scores(xa, xb)
    if method == "spearman":
        return _spearman(xa, xb, tie_tol)
    if method == "kendall":
        return _kendall_tau_b(xa, xb, tie_tol)
    raise ValueError(f"unknown method {method!r}; use pearson, spearman or kendall")
