"""Graph workloads and utilities used throughout the reproduction.

This subpackage provides the graph generators that the named workloads of
:mod:`repro.pipeline.scenarios` build on (grids, tori, trees, hypercubes,
random regular graphs, expanders, the subdivided-expander barrier
construction of Section 3 of the paper), the
power-graph operator ``G^k`` used by the ABCP96 baseline, and structural
property helpers (diameter, conductance, components, eccentricities).

All generators return :class:`networkx.Graph` instances whose nodes are
consecutive integers ``0..n-1``; every node additionally carries a unique
``O(log n)``-bit identifier in the node attribute ``"uid"`` because the
deterministic algorithms of the paper operate on node identifiers.

The subpackage also hosts the flat-array graph core (:mod:`repro.graphs.csr`)
that every BFS-shaped primitive runs on.
"""

from repro.graphs.csr import CSRGraph, CSRUnsupported, invalidate_csr_cache
from repro.graphs.generators import (
    assign_unique_identifiers,
    attach_edge_weights,
    binary_tree_graph,
    caterpillar_graph,
    cycle_graph,
    erdos_renyi_graph,
    expander_mix_graph,
    grid_graph,
    hypercube_graph,
    path_graph,
    random_regular_graph,
    star_graph,
    torus_graph,
    watts_strogatz_graph,
)
from repro.graphs.expanders import (
    barrier_graph,
    margulis_expander,
    random_regular_expander,
    subdivide_edges,
)
from repro.graphs.power import power_graph, power_law_graph
from repro.graphs.io import (
    clustering_to_dict,
    read_clustering,
    read_edge_list,
    write_clustering,
    write_edge_list,
)
from repro.graphs.properties import (
    approximate_diameter,
    conductance_of_cut,
    connected_subgraphs,
    exact_diameter,
    graph_conductance_lower_bound,
    induced_components,
    is_partition,
    iter_neighbors,
    neighborhood_ball,
    neighbors_resolver,
    radius_from,
    subgraph_diameter,
)

__all__ = [
    "CSRGraph",
    "CSRUnsupported",
    "invalidate_csr_cache",
    "iter_neighbors",
    "neighbors_resolver",
    "assign_unique_identifiers",
    "attach_edge_weights",
    "binary_tree_graph",
    "caterpillar_graph",
    "cycle_graph",
    "erdos_renyi_graph",
    "expander_mix_graph",
    "grid_graph",
    "hypercube_graph",
    "path_graph",
    "random_regular_graph",
    "star_graph",
    "torus_graph",
    "watts_strogatz_graph",
    "barrier_graph",
    "margulis_expander",
    "random_regular_expander",
    "subdivide_edges",
    "power_graph",
    "power_law_graph",
    "clustering_to_dict",
    "read_clustering",
    "read_edge_list",
    "write_clustering",
    "write_edge_list",
    "approximate_diameter",
    "conductance_of_cut",
    "connected_subgraphs",
    "exact_diameter",
    "graph_conductance_lower_bound",
    "induced_components",
    "is_partition",
    "neighborhood_ball",
    "radius_from",
    "subgraph_diameter",
]
