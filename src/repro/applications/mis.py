"""Maximal independent set via network decomposition.

The classic application: process colors one by one; inside each cluster,
greedily extend the independent set, respecting the decisions already made by
neighbours in previously processed clusters.  Because same-color clusters are
non-adjacent, their greedy extensions cannot conflict, and after the last
color every node is either in the set or has a neighbour in it.

The loop runs over the CSR adjacency rows: state lives in one
``bytearray`` indexed by node position, and neighbour scans walk the
index's per-node neighbour tuples.  It charges the per-color template
cost of :func:`~repro.applications.template.process_by_colors`, whose
generic form with a greedy handler is the tests' reference.
"""

from __future__ import annotations

from typing import Any, Optional, Set

import networkx as nx

from repro.applications.template import (
    charge_color_round,
    color_classes,
    sorted_member_indices,
)
from repro.clustering.decomposition import NetworkDecomposition
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import CSRGraph, csr_index

# Flat MIS node states: one bytearray value per node.
MIS_UNDECIDED, MIS_SELECTED, MIS_DOMINATED = 0, 1, 2


def _csr_mis(
    decomposition: NetworkDecomposition, csr: CSRGraph, ledger: RoundLedger
) -> Set[Any]:
    """The flat-array MIS loop: one state byte per node, int-row neighbour scans.

    Same-color clusters are non-adjacent, so a single live state array is
    equivalent to the template's per-color snapshots: a neighbour decided
    within the current color is necessarily in the *same* cluster.  A
    node-induced view's hidden neighbours are in no cluster, so they stay
    undecided and never block a node.
    """
    color_diameters = decomposition.geometry.color_diameters
    nodes = csr.nodes
    rows = csr.neighbor_rows
    state = bytearray(csr.n)  # every node MIS_UNDECIDED
    result = set()
    for color, clusters in color_classes(decomposition):
        for cluster in clusters:
            # Greedy extension in uid order: every decision depends on the
            # previous one.
            for i in sorted_member_indices(cluster, csr):
                selected = MIS_SELECTED
                for j in rows[i]:
                    if state[j] == MIS_SELECTED:
                        selected = MIS_DOMINATED
                        break
                state[i] = selected
                if selected == MIS_SELECTED:
                    result.add(nodes[i])
        charge_color_round(ledger, color_diameters[color])
    return result


def maximal_independent_set(
    decomposition: NetworkDecomposition,
    ledger: Optional[RoundLedger] = None,
) -> Set[Any]:
    """Compute an MIS of the decomposition's graph via the color template.

    Returns the set of selected nodes.  The round cost charged to ``ledger``
    is ``O(C * D)`` as per the standard argument.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    # No per-call staleness refresh: like the primitives in
    # repro.graphs.properties, the solvers trust the cached index — the
    # public entry points (run_task, the suite runner) refresh once per
    # invocation, and a decomposition's host graph is fixed by contract.
    return _csr_mis(decomposition, csr_index(decomposition.graph), ledger)


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
