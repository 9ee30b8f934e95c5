"""Score reports: per-vertex values plus a deterministic tie-aware ranking."""

from __future__ import annotations

import gc
import threading
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

VERTEX_TIE_TOL = 1e-9


class _CollectorPause:
    """Context manager: no automatic garbage collection while ranking rows are built.

    CPython tracks a NamedTuple row for good, so with the collector on a
    build of n rows runs about n/700 young collections, and the older ones
    they trigger walk every live row; paused, the build ends with one young
    collection. The collector's state is process-wide, so the pause is too:
    while any thread builds rows, no allocation starts a collection. A lock
    and a depth count restore the prior state: the first thread in records
    gc.isenabled() and disables, the last one out re-enables only if the
    first saw it on. Without them, two threads can leave it off for good.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._resume = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._resume = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info) -> None:
        with self._lock:
            self._depth -= 1
            if self._depth == 0 and self._resume:
                gc.enable()


_collector_paused = _CollectorPause()


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


@dataclass(frozen=True, eq=False)
class CentralityReport:
    """Scores of one measure over one graph.

    scores[i] belongs to labels[i] (the graph's internal order). The ranking
    is descending by score with competition ranks: scores within tie_tol form
    a tie group sharing the smallest rank, ordered by ascending label inside
    the group, and the next distinct score skips the swallowed ranks.
    """

    measure: str
    params: dict
    labels: tuple[str, ...]
    scores: np.ndarray
    normalization: str  # "unit-euclidean" | "raw"
    ranking: tuple[RankedVertex, ...]
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
        return [entry.label for entry in self.ranking[:k]]

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
) -> tuple[RankedVertex, ...]:
    """Competition-rank scores descending; each tie group sorted by label."""
    order, group, rank = competition_rank(scores, (label_positions(tuple(labels)),), tie_tol)
    order = order.tolist()
    columns = ([labels[i] for i in order], scores[order].tolist(), rank.tolist(), group.tolist())
    return _build_rows(RankedVertex, columns)


def _build_rows(cls: type, columns: Sequence[Iterable]) -> tuple:
    """One cls row per position of the columns, built with automatic garbage
    collection paused; a column may be a lazy iterator, and it is consumed
    inside the pause too."""
    # tuple.__new__ is what cls._make calls, minus a call and a length check
    with _collector_paused:
        return tuple(map(tuple.__new__, repeat(cls), zip(*columns)))


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
