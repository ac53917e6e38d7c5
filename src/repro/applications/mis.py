"""Maximal independent set via network decomposition.

The classic application: process colors one by one; inside each cluster,
greedily extend the independent set, respecting the decisions already made by
neighbours in previously processed clusters.  Because same-color clusters are
non-adjacent, their greedy extensions cannot conflict, and after the last
color every node is either in the set or has a neighbour in it.

Two interchangeable execution paths produce **identical** sets (enforced by
the differential tests): the flat-array loop over the CSR adjacency rows
(the default — state lives in one ``bytearray`` indexed by node position,
neighbour scans are int-slice walks) and the original networkx walk through
:func:`~repro.applications.template.process_by_colors`, kept as the oracle
and used when the ``"nx"`` backend is active or the graph cannot be
CSR-indexed.  Both charge the same per-color template cost.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

import networkx as nx

from repro.applications.template import (
    charge_color_round,
    color_classes,
    node_order_key,
    process_by_colors,
    sorted_member_indices,
)
from repro.clustering.cluster import Cluster
from repro.clustering.decomposition import NetworkDecomposition
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import CSRGraph, csr_index_or_none
from repro.kernels import active_kernel
from repro.kernels.base import MIS_DOMINATED, MIS_SELECTED, MIS_UNDECIDED

# Flat MIS node states (bytearray values of the kernel sweep) — aliases of
# the kernel-layer constants so the two vocabularies cannot drift.
_UNDECIDED, _SELECTED, _DOMINATED = MIS_UNDECIDED, MIS_SELECTED, MIS_DOMINATED


def _greedy_cluster_mis(
    graph: nx.Graph, cluster: Cluster, partial: Dict[Any, Any]
) -> Dict[Any, bool]:
    """Greedy MIS inside one cluster, honouring already-decided neighbours."""
    decisions: Dict[Any, bool] = {}
    ordered = sorted(cluster.nodes, key=lambda node: node_order_key(graph, node))
    for node in ordered:
        blocked = False
        for neighbour in graph.neighbors(node):
            if partial.get(neighbour) is True or decisions.get(neighbour) is True:
                blocked = True
                break
        decisions[node] = not blocked
    return decisions


def _csr_mis(
    decomposition: NetworkDecomposition, csr: CSRGraph, ledger: RoundLedger
) -> Set[Any]:
    """The flat-array MIS loop: one state byte per node, int-row neighbour scans.

    Same-color clusters are non-adjacent, so a single live state array is
    equivalent to the oracle's per-color snapshots: a neighbour decided
    within the current color is necessarily in the *same* cluster, exactly
    what the oracle's intra-cluster ``decisions`` map sees.
    """
    color_diameters = decomposition.geometry.color_diameters
    nodes = csr.nodes
    kernel = active_kernel()
    state = bytearray(csr.n)
    result = set()
    for color, clusters in color_classes(decomposition):
        for cluster in clusters:
            for i in kernel.mis_sweep(csr, sorted_member_indices(cluster, csr), state):
                result.add(nodes[i])
        charge_color_round(ledger, color, color_diameters[color])
    return result


def maximal_independent_set(
    decomposition: NetworkDecomposition,
    ledger: Optional[RoundLedger] = None,
) -> Set[Any]:
    """Compute an MIS of the decomposition's graph via the color template.

    Returns the set of selected nodes.  The round cost charged to ``ledger``
    is ``O(C * D)`` as per the standard argument.  Runs the flat-array CSR
    loop when the ambient backend allows it (``views="reject"``: a subgraph
    view's hidden neighbours must not block its nodes), the networkx oracle
    otherwise — both produce the same set.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    # No per-call staleness refresh: like the primitives in
    # repro.graphs.properties, the solvers trust the cached index — the
    # public entry points (run_task, the suite runner) refresh once per
    # invocation, and a decomposition's host graph is fixed by contract.
    csr = csr_index_or_none(decomposition.graph, views="reject")
    if csr is not None:
        return _csr_mis(decomposition, csr, ledger)
    solution = process_by_colors(decomposition, _greedy_cluster_mis, ledger=ledger)
    return {node for node, selected in solution.items() if selected}


def verify_mis(graph: nx.Graph, independent_set: Set[Any]) -> bool:
    """True when ``independent_set`` is independent and maximal in ``graph``."""
    for node in independent_set:
        for neighbour in graph.neighbors(node):
            if neighbour in independent_set:
                return False
    for node in graph.nodes():
        if node in independent_set:
            continue
        if not any(neighbour in independent_set for neighbour in graph.neighbors(node)):
            return False
    return True
