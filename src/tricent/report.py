"""Score reports: per-vertex values plus a deterministic tie-aware ranking."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Mapping, NamedTuple

import numpy as np

VERTEX_TIE_TOL = 1e-9


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order items by descending score, each tie group by ascending tiebreak keys.

    tiebreak lists integer key arrays, most significant first; with none,
    each group keeps its members in descending score order. Returns
    (order, group, rank), aligned with order: consecutive scores within
    tie_tol chain into one tie group (group counts groups from 0), and every
    member of a group shares the competition rank of its first position, so
    the next group skips the swallowed ranks ("1, 2, 2, 2, 5"). Inside a
    group the keys alone decide, not scores that differ by rounding noise.
    """
    order = np.argsort(-scores, kind="stable")
    ordered = scores[order]
    new_group = np.ones(len(order), dtype=bool)
    np.greater(ordered[:-1] - ordered[1:], tie_tol, out=new_group[1:])
    group = np.cumsum(new_group) - 1
    starts = np.flatnonzero(new_group)
    rank = starts[group] + 1
    if tiebreak:  # only groups of two or more are reordered; group is nondecreasing
        tied = np.flatnonzero(np.diff(starts, append=len(order))[group] > 1)
        members = order[tied]
        keys = (*(key[members] for key in reversed(tiebreak)), group[tied])
        order[tied] = members[np.lexsort(keys)]
    return order, group, rank


class RankedVertex(NamedTuple):
    label: str
    score: float
    rank: int
    tie_group: int


class RankingView(Sequence):
    """The rows of a ranking, kept as columns; a row is made when it is read.

    columns are equal-length arrays in rank order, labels in object arrays,
    made read-only here. row(*cells) makes the row at one position from
    cells taken through tolist(), so they are Python str, float and int. The
    view acts as the tuple of its rows: indexing (a slice gives a tuple of
    rows), iteration and membership, and == against a tuple of rows in either
    operand order. Two views compare by their columns.
    """

    __slots__ = ("_row", "columns")

    def __init__(self, row: Callable[..., tuple], columns: Sequence[np.ndarray]) -> None:
        self._row = row
        self.columns = tuple(columns)
        for column in self.columns:
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self._row, *(column[i].tolist() for column in self.columns)))
        i = range(len(self))[i]  # IndexError out of range, as for a tuple
        return self[i : i + 1][0]

    def __iter__(self):
        return map(self._row, *(column.tolist() for column in self.columns))

    def __eq__(self, other) -> bool:
        if isinstance(other, RankingView):
            columns = zip(self.columns, other.columns)
            same = self._row is other._row and all(np.array_equal(a, b) for a, b in columns)
            return same or len(self) == len(other) == 0
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented


@dataclass(frozen=True, eq=False)
class CentralityReport:
    """Scores of one measure over one graph.

    scores[i] belongs to labels[i] (the graph's internal order). The ranking
    is descending by score with competition ranks: scores within tie_tol form
    a tie group sharing the smallest rank, ordered by ascending label inside
    the group, and the next distinct score skips the swallowed ranks. It is a
    RankingView of RankedVertex rows, equal to the tuple of those rows.
    """

    measure: str
    params: dict
    labels: tuple[str, ...]
    scores: np.ndarray
    normalization: str  # "unit-euclidean" | "raw"
    ranking: RankingView
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.labels)

    @cached_property
    def _label_to_id(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def score_of(self, label: str) -> float:
        try:
            return float(self.scores[self._label_to_id[label]])
        except KeyError:
            raise KeyError(f"no vertex labeled {label!r} in this report") from None

    def top(self, k: int) -> list[str]:
        return self.ranking.columns[0][:k].tolist()

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


def rank_scores(
    labels: Sequence[str],
    scores: np.ndarray,
    tie_tol: float = VERTEX_TIE_TOL,
) -> RankingView:
    """Competition-rank scores descending; each tie group sorted by label.

    A view of RankedVertex rows over the columns label, score, rank, tie group."""
    order, group, rank = competition_rank(scores, (label_positions(tuple(labels)),), tie_tol)
    ranked = np.array(labels, dtype=object)[order]
    return RankingView(RankedVertex, (ranked, scores[order], rank, group))


def make_report(
    measure: str,
    params: Mapping[str, object] | None,
    labels: Sequence[str],
    scores: np.ndarray,
    normalization: str,
    meta: Mapping[str, object] | None = None,
    tie_tol: float = VERTEX_TIE_TOL,
) -> CentralityReport:
    """A CentralityReport of scores[i] for labels[i], ranked by rank_scores.

    params and meta are copied into plain dicts; scores become a float
    array, and a length other than len(labels) raises ValueError.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape != (len(labels),):
        raise ValueError("scores and labels differ in length")
    return CentralityReport(
        measure=measure,
        params=dict(params or {}),
        labels=tuple(labels),
        scores=scores,
        normalization=normalization,
        ranking=rank_scores(labels, scores, tie_tol),
        meta=dict(meta or {}),
    )
