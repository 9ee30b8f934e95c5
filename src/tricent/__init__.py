"""tricent: triangle-aware eigenvector centrality for undirected graphs.

The core measure blends edge and triangle structure through a parameter
alpha in (0, 1]: vertex scores are the positive eigenvector at the spectral
radius of the order-3 tensor alpha * A_E + (1 - alpha) * A_tri, computed
matrix-free by a shifted higher-order power iteration. Classical measures
(degree, eigenvector, triangle, betweenness, subgraph centrality), triangle
importance rankings, and connectivity-removal experiments ride on the same
graph type.
"""

from .analysis import (
    RankedTriangle,
    RemovalResult,
    TriangleRanking,
    cycle_index_fiedler,
    rank_correlation,
    removal_experiment,
    triangle_importance,
)
from .centrality import (
    adjacency_matrix,
    betweenness_centrality,
    degree_centrality,
    eigenvector_centrality,
    fiedler_vector,
    laplacian_matrix,
    subgraph_centrality,
    triangle_centrality,
)
from .datasets import (
    dataset_info,
    dataset_names,
    dataset_path,
    load_dataset,
    verify_dataset,
)
from .graph import (
    DegreeTriangleStats,
    DuplicateEdgeWarning,
    EdgeListParseError,
    Graph,
    GraphValidationError,
    TriangleSet,
    connected_components,
    degree_and_triangle_stats,
    dump_edge_list,
    enumerate_triangles,
    is_connected,
    load_edge_list,
    remove_vertices,
)
from .report import CentralityReport, RankedVertex, make_report
from .tensor import (
    AlphaDomainError,
    AlphaTriangleOperator,
    ConvergenceError,
    NotConnectedError,
    SpectralResult,
    atec,
    atec_per_component,
    build_operator,
    solve_spectral,
)

__version__ = "1.0.0"

__all__ = [
    "AlphaDomainError",
    "AlphaTriangleOperator",
    "CentralityReport",
    "ConvergenceError",
    "DegreeTriangleStats",
    "DuplicateEdgeWarning",
    "EdgeListParseError",
    "Graph",
    "GraphValidationError",
    "NotConnectedError",
    "RankedTriangle",
    "RankedVertex",
    "RemovalResult",
    "SpectralResult",
    "TriangleRanking",
    "TriangleSet",
    "adjacency_matrix",
    "atec",
    "atec_per_component",
    "betweenness_centrality",
    "build_operator",
    "connected_components",
    "cycle_index_fiedler",
    "dataset_info",
    "dataset_names",
    "dataset_path",
    "degree_and_triangle_stats",
    "degree_centrality",
    "dump_edge_list",
    "eigenvector_centrality",
    "enumerate_triangles",
    "fiedler_vector",
    "is_connected",
    "laplacian_matrix",
    "load_dataset",
    "load_edge_list",
    "make_report",
    "rank_correlation",
    "remove_vertices",
    "removal_experiment",
    "solve_spectral",
    "subgraph_centrality",
    "triangle_centrality",
    "triangle_importance",
    "verify_dataset",
]
