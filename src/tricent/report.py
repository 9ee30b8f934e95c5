"""Score reports: per-vertex values plus a deterministic tie-aware ranking."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, NamedTuple

import numpy as np

VERTEX_TIE_TOL = 1e-9
# the smallest float whose 10-digit text (the CLI's) reads back as inf
_PRINTABLE_MAX = 1.7976931345e308


def label_sort_key(label: str):
    """Ascending label order, numeric when the label parses as an integer."""
    try:
        return (0, int(label), label)
    except ValueError:
        return (1, 0, label)


@lru_cache(maxsize=1)
def label_positions(labels: tuple[str, ...]) -> np.ndarray:
    """pos[i] = place of labels[i] in ascending label_sort_key order, read-only.

    The one label order of every ranking: the positions of the last labels
    tuple are kept, so all the rankings of one graph sort its labels once.
    """
    order = sorted(range(len(labels)), key=lambda i: label_sort_key(labels[i]))
    pos = np.empty(len(labels), dtype=np.intp)
    pos[order] = np.arange(len(labels))
    pos.setflags(write=False)
    return pos


def competition_rank(
    scores: np.ndarray, tiebreak: Sequence[np.ndarray], tie_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Order items by descending score, each tie group by ascending tiebreak keys.

    tiebreak lists integer key arrays, most significant first; with none,
    each group keeps its members in descending score order. Returns
    (order, starts), both intp: order[p] is the item at rank position p, and
    consecutive scores within tie_tol chain into one tie group, the groups
    beginning at the ascending positions starts. Every member of group g
    shares the competition rank starts[g] + 1 of its first position, so the
    next group skips the swallowed ranks ("1, 2, 2, 2, 5"). Inside a group
    the keys alone decide, not scores that differ by rounding noise.
    """
    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    new_group = np.ones(len(order), dtype=bool)
    np.greater(ordered[:-1] - ordered[1:], tie_tol, out=new_group[1:])
    starts = np.flatnonzero(new_group)
    if tiebreak:  # only groups of two or more are reordered; group is nondecreasing
        group = np.cumsum(new_group) - 1
        tied = np.flatnonzero(np.diff(starts, append=len(order))[group] > 1)
        members = order[tied]
        keys = (*(key[members] for key in reversed(tiebreak)), group[tied])
        order[tied] = members[np.lexsort(keys)]
    return order, starts


def _require_finite(scores: np.ndarray, name: str) -> None:
    """Raise ValueError naming name when a score is NaN or infinite, which has
    no place in a descending order, or finite but at least _PRINTABLE_MAX in
    magnitude, whose printed text would read back as infinite."""
    if not (np.abs(scores) < _PRINTABLE_MAX).all():  # NaN fails the comparison too
        if not np.isfinite(scores).all():
            raise ValueError(f"{name} has a NaN or infinite score")
        raise ValueError(
            f"{name} has a score of magnitude {_PRINTABLE_MAX!r} or more, which prints as inf"
        )


class RankedVertex(NamedTuple):
    label: str
    score: float
    rank: int
    tie_group: int


class RankingView(Sequence):
    """The rows of a ranking, made when read from its rank order.

    A view keeps order (the item at each rank position) and starts (the
    ascending positions where the tie groups begin), both intp, and reads
    without copying its owner's scores by item and labels by vertex, and for
    triangles triples: (triangle_array, label positions). Position p is in
    tie group g, the last to start at or before p, of competition rank
    starts[g] + 1. columns gathers read-only columns at each read: the label
    (or v1, v2, v3), score, rank and, for vertices, tie group; row(*cells)
    makes a row from their Python str, float and int cells. The view acts
    as the tuple of its rows: indexing (a slice gives a tuple of rows,
    gathered from its positions alone), iteration, reversed() and index()
    (one gather each), membership, and == against such a tuple in either
    operand order. Two views are equal when their row types and columns
    are, and any two empty views are equal.
    """

    __slots__ = ("_row", "order", "starts", "_scores", "_labels", "_triples")

    def __init__(self, row, order, starts, scores, labels, triples=None) -> None:
        self._row, self.order, self.starts = row, order, starts
        self._scores, self._labels, self._triples = scores.view(), labels, triples
        for array in (order, starts, self._scores):
            array.setflags(write=False)

    def _gather(self, at: slice) -> tuple[np.ndarray, ...]:
        """The read-only columns of the rows at positions range(len(self))[at]."""
        order, span = self.order[at], range(len(self))[at]
        positions = np.arange(span.start, span.stop, span.step)
        group = np.searchsorted(self.starts, positions, "right") - 1
        ids, tail = (order,), (group,)
        if self._triples is not None:  # each triple's vertices in label order
            triangles, label_order = self._triples
            corners = triangles[order]
            ids, tail = np.take_along_axis(corners, label_order[corners].argsort(1), 1).T, ()
        labels = self._labels
        names = (np.array([labels[i] for i in column.tolist()], dtype=object) for column in ids)
        columns = (*names, self._scores[order], self.starts[group] + 1, *tail)
        for column in columns:
            column.setflags(write=False)
        return columns

    @property
    def columns(self) -> tuple[np.ndarray, ...]:
        return self._gather(slice(None))

    def __len__(self) -> int:
        return len(self.order)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._row, *(column.tolist() for column in self._gather(i))))
        i = range(len(self))[i]  # IndexError out of range, as for a tuple
        return self[i : i + 1][0]

    def __iter__(self):
        return map(self._row, *(column.tolist() for column in self.columns))

    def __reversed__(self):
        return iter(self[::-1])

    def index(self, value, start=0, stop=None) -> int:
        """tuple.index over the rows of one gather of self[start:stop]."""
        return slice(start, stop).indices(len(self))[0] + self[start:stop].index(value)

    def __eq__(self, other) -> bool:
        if isinstance(other, RankingView):
            if len(self) == len(other) == 0 or self._row is not other._row:
                return len(self) == len(other) == 0
            keys = (self.order, self.starts), (other.order, other.starts)
            one = self._labels is other._labels and self._triples is other._triples is None
            if one and all(map(np.array_equal, *keys)):  # vertex rows differ only in scores
                return np.array_equal(self._scores[self.order], other._scores[other.order])
            return all(map(np.array_equal, self.columns, other.columns))
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented


@dataclass(frozen=True, eq=False)
class CentralityReport:
    """Scores of one measure over one graph.

    scores[i] belongs to labels[i] (the graph's internal order). The ranking,
    made on first read and kept, is descending by score with competition
    ranks: scores within VERTEX_TIE_TOL form a tie group sharing the smallest
    rank, ordered by ascending label inside the group, and the next distinct
    score skips the swallowed ranks. It is a RankingView of RankedVertex rows
    over the report's read-only scores and its labels, equal to the tuple of
    those rows.
    """

    measure: str
    params: dict
    labels: tuple[str, ...]
    scores: np.ndarray
    normalization: str  # "unit-euclidean" | "raw"
    meta: dict = field(default_factory=dict)

    @cached_property
    def ranking(self) -> RankingView:
        rank = competition_rank(self.scores, (label_positions(self.labels),), VERTEX_TIE_TOL)
        return RankingView(RankedVertex, *rank, self.scores, self.labels)

    @cached_property
    def _label_to_id(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def score_of(self, label: str) -> float:
        try:
            return float(self.scores[self._label_to_id[label]])
        except KeyError:
            raise KeyError(f"no vertex labeled {label!r} in this report") from None

    def top(self, k: int) -> list[str]:
        """The labels of the first k rows; a negative k raises ValueError."""
        if k < 0:
            raise ValueError(f"top needs k >= 0, got {k}")
        return [self.labels[i] for i in self.ranking.order[:k].tolist()]

    def unit_euclidean(self) -> "CentralityReport":
        """The same report rescaled to unit Euclidean norm."""
        if self.normalization == "unit-euclidean":
            return self
        norm = float(np.linalg.norm(self.scores))
        if norm == 0.0:
            raise ValueError("cannot normalize an all-zero score vector")
        return make_report(
            self.measure,
            self.params,
            self.labels,
            self.scores / norm,
            normalization="unit-euclidean",
            meta=self.meta,
        )


def make_report(
    measure: str,
    params: Mapping[str, object] | None,
    labels: Sequence[str],
    scores: np.ndarray,
    normalization: str,
    meta: Mapping[str, object] | None = None,
) -> CentralityReport:
    """A CentralityReport of scores[i] for labels[i].

    params and meta are copied into plain dicts, scores become a read-only
    float array; a length other than len(labels), or a NaN or infinite
    score, raises ValueError.
    """
    labels = tuple(labels)
    scores = np.asarray(scores, dtype=float).view()
    scores.setflags(write=False)
    if scores.shape != (len(labels),):
        raise ValueError("scores and labels differ in length")
    _require_finite(scores, f"measure {measure!r}")
    return CentralityReport(
        measure=measure,
        params=dict(params or {}),
        labels=labels,
        scores=scores,
        normalization=normalization,
        meta=dict(meta or {}),
    )
