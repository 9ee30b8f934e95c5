"""Walk through the alpha blend on a small, fully understandable graph.

The bundled 14-vertex example has two triangles ({1,2,3} and {5,6,7}) joined
through a bridge vertex 4, and a hub 8 carrying six leaves. Sliding alpha from
1 down to 0.01 moves the centrality mass from the edge-rich hub region into
the triangle region, and the ranking flips accordingly.
"""

import numpy as np

from tricent import (
    atec,
    betweenness_centrality,
    degree_centrality,
    enumerate_triangles,
    load_dataset,
    subgraph_centrality,
    triangle_centrality,
)

g = load_dataset("paper-g14")
tris = enumerate_triangles(g)
triangles = tris.triangle_array.tolist()
print(f"graph: {g.n} vertices, {g.m} edges, triangles: "
      f"{[tuple(g.labels[v] for v in t) for t in triangles]}")

groups = [("1,5", "1"), ("2,3,6,7", "2"), ("4", "4"), ("8", "8"), ("9..14", "9")]

print("\nclassical measures (one column per symmetry class):")
print(f"{'measure':>10s} " + " ".join(f"{name:>9s}" for name, _ in groups))
for name, report in (
    ("dc", degree_centrality(g)),
    ("tc", triangle_centrality(g, tris)),
    ("sc", subgraph_centrality(g).unit_euclidean()),
    ("bc", betweenness_centrality(g).unit_euclidean()),
):
    row = " ".join(f"{report.score_of(rep):9.4f}" for _, rep in groups)
    print(f"{name:>10s} {row}")

print("\nalpha sweep (same columns):")
print(f"{'alpha':>10s} " + " ".join(f"{name:>9s}" for name, _ in groups) + "   top vertex")
for alpha in (1.0, 0.8, 0.6, 0.4, 0.2, 0.01):
    rep = atec(g, alpha)
    row = " ".join(f"{rep.score_of(r):9.4f}" for _, r in groups)
    print(f"{alpha:>10.2f} {row}   {rep.ranking[0].label}")

print("""
Reading the table top to bottom:
  - at alpha = 1 only edges matter and the degree-7 hub 8 dominates; the
    leaves outscore the triangle vertices 2,3,6,7 because they sit next to
    the strongest vertex;
  - by alpha = 0.6 the triangle tips 1 and 5 take the lead (they enjoy both
    a triangle and the bridge edges through 4);
  - at alpha = 0.01 nearly all mass sits on the two triangles, vertex 4
    survives on its edges into them, and the hub side fades to almost zero.
""")

rep = atec(g, 0.6)
x = rep.scores
rho = rep.meta["rho"]
i = g.id_of("4")
neighbours = sorted(u + v - i for u, v in g.edge_array.tolist() if i in (u, v))
edge_part = sum(x[j] ** 2 for j in neighbours)
# the (j, k), j < k, of each triangle {i, j, k}
pairs = sorted(tuple(v for v in tri if v != i) for tri in triangles if i in tri)
tri_part = sum(x[j] * x[k] for j, k in pairs)
print("the eigenvalue equation at vertex 4 (alpha = 0.6):")
print(f"  rho * x_4^2          = {rho * x[i] ** 2:.6f}")
print(f"  0.6 * edge term      = {0.6 * edge_part:.6f}")
print(f"  0.4 * triangle term  = {0.4 * tri_part:.6f}  (vertex 4 is in no triangle)")
print(f"  residual             = {abs(rho * x[i]**2 - 0.6 * edge_part - 0.4 * tri_part):.2e}")
assert np.isclose(rho * x[i] ** 2, 0.6 * edge_part + 0.4 * tri_part, atol=1e-9)
