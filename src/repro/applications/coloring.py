"""(Δ+1)-coloring via network decomposition.

Process the decomposition's colors one by one; inside each cluster, greedily
assign each node the smallest palette color not used by any already-colored
neighbour.  Every node has at most Δ neighbours, so a palette of Δ+1 colors
always suffices, and same-color clusters cannot conflict because they are
non-adjacent.

As with MIS, the loop runs over the CSR adjacency rows (palette state in
one int buffer indexed by node position) and charges the per-color template
cost of :func:`~repro.applications.template.process_by_colors`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import networkx as nx

from repro.applications.template import (
    charge_color_round,
    color_classes,
    sorted_member_indices,
)
from array import array

from repro.clustering.decomposition import NetworkDecomposition
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import CSRGraph, csr_index


def _csr_coloring(
    decomposition: NetworkDecomposition, csr: CSRGraph, ledger: RoundLedger
) -> Dict[Any, int]:
    """The flat-array first-fit loop: palette state per node index.

    Equivalent to the template's per-color snapshots for the same reason as
    the MIS loop: a neighbour colored within the current color class is in
    the same cluster, and a view's hidden neighbours are never colored.
    """
    color_diameters = decomposition.geometry.color_diameters
    nodes = csr.nodes
    rows = csr.neighbor_rows
    # -1 marks uncolored nodes.
    palette = array("i", [-1]) * csr.n
    result = {}
    for color, clusters in color_classes(decomposition):
        for cluster in clusters:
            for i in sorted_member_indices(cluster, csr):
                # First-fit over the neighbour palette: a plain list beats a
                # set for the bounded degrees here, and the -1 "uncolored"
                # sentinels never collide with a candidate value >= 0.
                used = [palette[j] for j in rows[i]]
                value = 0
                while value in used:
                    value += 1
                palette[i] = value
                result[nodes[i]] = value
        charge_color_round(ledger, color_diameters[color])
    return result


def delta_plus_one_coloring(
    decomposition: NetworkDecomposition,
    ledger: Optional[RoundLedger] = None,
) -> Dict[Any, int]:
    """Compute a proper (Δ+1)-coloring of the decomposition's graph.

    Returns a mapping node -> palette color in ``{0, ..., Δ}``.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    # No per-call staleness refresh — see maximal_independent_set.
    return _csr_coloring(decomposition, csr_index(decomposition.graph), ledger)


def verify_coloring(graph: nx.Graph, coloring: Dict[Any, int]) -> bool:
    """True when ``coloring`` is proper and uses at most Δ+1 palette colors."""
    if set(coloring) != set(graph.nodes()):
        return False
    max_degree = max((degree for _, degree in graph.degree()), default=0)
    if any(color < 0 or color > max_degree for color in coloring.values()):
        return False
    return all(coloring[u] != coloring[v] for u, v in graph.edges())
