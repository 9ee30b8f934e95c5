"""Spans around the benchmark's own calls into tricent.

Nothing inside the library is instrumented: each span wraps one call the
benchmark makes into a public function, and a count is recorded at the same
boundary. Spans nest through a stack, so a layer's self time is its span's
duration minus the time its child spans cover. Totals accumulate in memory
over every traced op of a run and are turned into per-op figures at the end.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median
from time import perf_counter

# Modelled traffic of one operator entry in apply(): the coefficient and the
# row, j and k indices (4 x 8 bytes), the gathered x[j] and x[k] (2 x 8), the
# contribution written and read back (2 x 8) and the read-modify-write of
# out[row] by np.add.at (2 x 8). A computed figure, not a measured one.
APPLY_BYTES_PER_ENTRY = 80


class Tracer:
    """Self time and every duration per span name, plus counts."""

    active = True

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.ops = 0
        self._child_s: list[float] = []  # child time of each open span

    def call(self, name, fn, *args, **kwargs):
        self._child_s.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            child = self._child_s.pop()
            self.self_s[name] += duration - child
            self.durations[name].append(duration)
            if self._child_s:
                self._child_s[-1] += duration

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    def per_op(self, names: list[str], traced_s: list[float], untraced_s: list[float]) -> dict:
        """Every per-layer metric in names, as a figure per traced op.

        A `<span>.s` metric is that span's self time per op; counts are per
        op; layers an op never entered read 0. trace.unattributed_s is the
        traced op time no span covers, and trace.overhead_s is the traced
        minus the untraced median op time.
        """
        ops = max(self.ops, 1)
        out = {name: 0.0 for name in names}
        for span, seconds in self.self_s.items():
            out[f"{span}.s"] = seconds / ops
        for counter, value in self.counts.items():
            out[counter] = value / ops
        apply_s = sum(self.durations["tensor.apply"])
        if apply_s > 0:
            entries = self.counts["tensor.apply.entries"]
            out["tensor.apply.entries_per_s"] = entries / apply_s
            out["tensor.apply.bytes_computed"] = entries * APPLY_BYTES_PER_ENTRY / ops
        iterations = self.counts["tensor.solve_spectral.iterations"]
        if iterations:
            solve_s = sum(self.durations["tensor.solve_spectral"])
            out["tensor.solve_spectral.s_per_iter"] = solve_s / iterations
        if traced_s:
            out["trace.op_s"] = sum(traced_s) / len(traced_s)
            out["trace.unattributed_s"] = out["trace.op_s"] - sum(self.self_s.values()) / ops
        if traced_s and untraced_s:
            out["trace.overhead_s"] = median(traced_s) - median(untraced_s)
        out.pop("tensor.apply.entries", None)
        unknown = set(out) - set(names)
        if unknown:
            raise KeyError(f"layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        return out


class _Untraced:
    """The Tracer interface with nothing recorded, for timed ops."""

    active = False

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    def count(name, value):
        pass


UNTRACED = _Untraced()

