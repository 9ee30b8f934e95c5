"""Seeded, numpy-only graph generators for the benchmark.

Random choices come from the numpy Generator passed in, so the same seed
gives the same edge text byte for byte. The library under test only ever
receives that text; the benchmark prints its SHA-256, so a changed
generator shows up in the results.
"""

from __future__ import annotations

import numpy as np


def holme_kim_edges(n: int, m: int, p: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Holme & Kim (PRE 2002) clustered power-law graph.

    Starts from a clique on m + 1 vertices; every later vertex adds m edges.
    The first goes to a vertex picked with probability proportional to its
    degree; each further edge closes a triangle with a random neighbour of
    the last preferentially picked vertex with probability p, and otherwise
    is another preferential pick. The graph is connected and simple.
    """
    if not (m >= 1 and n > m + 1 and 0.0 <= p <= 1.0):
        raise ValueError(f"bad Holme-Kim parameters n={n} m={m} p={p}")
    edges: list[tuple[int, int]] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    # each edge endpoint appears once here, so a uniform pick is degree-biased
    ends: list[int] = []

    def link(u: int, v: int) -> None:
        edges.append((u, v))
        adj[u].append(v)
        adj[v].append(u)
        ends.append(u)
        ends.append(v)

    for u in range(m + 1):
        for v in range(u):
            link(v, u)
    for v in range(m + 1, n):
        chosen: set[int] = set()
        last = -1
        while len(chosen) < m:
            if last >= 0 and rng.random() < p:
                nbrs = [w for w in adj[last] if w not in chosen]
                if nbrs:
                    chosen.add(nbrs[int(rng.integers(len(nbrs)))])
                    continue
            w = ends[int(rng.integers(len(ends)))]
            if w not in chosen:
                chosen.add(w)
                last = w
        for w in sorted(chosen):
            link(w, v)
    return edges


def relabel_text(
    edges: list[tuple[str, str]], rng: np.random.Generator
) -> tuple[str, dict[str, str]]:
    """Edge-list text with vertex labels and line order permuted by rng.

    Labels become decimal strings from a random permutation, so the same
    graph reaches the library under a seed-dependent labelling and
    first-appearance order. Returns the text and the old -> new label map.
    """
    names = sorted({lab for e in edges for lab in e}, key=lambda s: (len(s), s))
    perm = rng.permutation(len(names))
    new = {lab: str(int(perm[i]) + 1) for i, lab in enumerate(names)}
    swap = rng.random(len(edges)) < 0.5
    lines = []
    for idx in rng.permutation(len(edges)):
        a, b = edges[int(idx)]
        if swap[idx]:
            a, b = b, a
        lines.append(f"{new[a]} {new[b]}\n")
    return "".join(lines), new


def edge_text(edges: list[tuple[int, int]]) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)

