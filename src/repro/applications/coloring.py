"""(Δ+1)-coloring via network decomposition.

Process the decomposition's colors one by one; inside each cluster, greedily
assign each node the smallest palette color not used by any already-colored
neighbour.  Every node has at most Δ neighbours, so a palette of Δ+1 colors
always suffices, and same-color clusters cannot conflict because they are
non-adjacent.

As with MIS, two interchangeable paths produce **identical** colorings: the
flat-array loop over the CSR adjacency rows (palette state in one int list
indexed by node position) and the networkx walk through
:func:`~repro.applications.template.process_by_colors`, kept as the
differential-testing oracle.  Both charge the same per-color template cost.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import networkx as nx

from repro.applications.template import (
    charge_color_round,
    color_classes,
    node_order_key,
    process_by_colors,
    sorted_member_indices,
)
from array import array

from repro.clustering.cluster import Cluster
from repro.clustering.decomposition import NetworkDecomposition
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import CSRGraph, csr_index_or_none
from repro.kernels import active_kernel


def _greedy_cluster_coloring(
    graph: nx.Graph, cluster: Cluster, partial: Dict[Any, Any]
) -> Dict[Any, int]:
    """First-fit coloring inside one cluster, honouring decided neighbours."""
    assignment: Dict[Any, int] = {}
    ordered = sorted(cluster.nodes, key=lambda node: node_order_key(graph, node))
    for node in ordered:
        used = set()
        for neighbour in graph.neighbors(node):
            if neighbour in assignment:
                used.add(assignment[neighbour])
            elif neighbour in partial and partial[neighbour] is not None:
                used.add(partial[neighbour])
        color = 0
        while color in used:
            color += 1
        assignment[node] = color
    return assignment


def _csr_coloring(
    decomposition: NetworkDecomposition, csr: CSRGraph, ledger: RoundLedger
) -> Dict[Any, int]:
    """The flat-array first-fit loop: palette state per node index.

    Equivalent to the oracle's per-color snapshots for the same reason as
    the MIS loop: a neighbour colored within the current color class is in
    the same cluster, which the oracle's intra-cluster ``assignment`` map
    sees too.
    """
    color_diameters = decomposition.geometry.color_diameters
    nodes = csr.nodes
    kernel = active_kernel()
    # An int32 buffer rather than a plain list so the JIT tier can view the
    # palette zero-copy; -1 marks uncolored nodes under every tier.
    palette = array("i", [-1]) * csr.n
    result = {}
    for color, clusters in color_classes(decomposition):
        for cluster in clusters:
            member_indices = sorted_member_indices(cluster, csr)
            values = kernel.greedy_color_sweep(csr, member_indices, palette)
            for i, value in zip(member_indices, values):
                result[nodes[i]] = value
        charge_color_round(ledger, color, color_diameters[color])
    return result


def delta_plus_one_coloring(
    decomposition: NetworkDecomposition,
    ledger: Optional[RoundLedger] = None,
) -> Dict[Any, int]:
    """Compute a proper (Δ+1)-coloring of the decomposition's graph.

    Returns a mapping node -> palette color in ``{0, ..., Δ}``.  Runs the
    flat-array CSR loop when the ambient backend allows it, the networkx
    oracle otherwise — both produce the same coloring.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    # No per-call staleness refresh — see maximal_independent_set.
    csr = csr_index_or_none(decomposition.graph, views="reject")
    if csr is not None:
        return _csr_coloring(decomposition, csr, ledger)
    return process_by_colors(decomposition, _greedy_cluster_coloring, ledger=ledger)


def verify_coloring(graph: nx.Graph, coloring: Dict[Any, int]) -> bool:
    """True when ``coloring`` is proper and uses at most Δ+1 palette colors."""
    if set(coloring) != set(graph.nodes()):
        return False
    max_degree = max((degree for _, degree in graph.degree()), default=0)
    if any(color < 0 or color > max_degree for color in coloring.values()):
        return False
    return all(coloring[u] != coloring[v] for u, v in graph.edges())
