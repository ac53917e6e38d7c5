"""Reference MIS and (Δ+1)-colouring solvers, walking networkx.

The greedy per-cluster handlers that the flat task loops of
:mod:`repro.applications.mis` and :mod:`repro.applications.coloring`
replaced, run through the generic colour template
:func:`repro.applications.template.process_by_colors` and kept as
differential oracles: both take each cluster's nodes in uid order (string
form as the tie-break, the order of
:attr:`~repro.graphs.csr.CSRGraph.uid_rank`, computed here in label space)
and read ``graph.neighbors``, so a node-induced view's hidden neighbours
never count.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set

import networkx as nx

from repro.applications.template import process_by_colors
from repro.clustering.cluster import Cluster
from repro.clustering.decomposition import NetworkDecomposition
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import uid_order_key


def _uid_order(graph: nx.Graph, cluster: Cluster):
    """``cluster``'s nodes by uid (the label when there is none), then label."""
    return sorted(
        cluster.nodes,
        key=lambda node: uid_order_key(graph.nodes[node].get("uid", node)) + (str(node),),
    )


def greedy_cluster_mis(
    graph: nx.Graph, cluster: Cluster, partial: Dict[Any, Any]
) -> Dict[Any, bool]:
    """Greedy MIS inside one cluster, honouring already-decided neighbours."""
    decisions: Dict[Any, bool] = {}
    for node in _uid_order(graph, cluster):
        decisions[node] = not any(
            partial.get(neighbour) is True or decisions.get(neighbour) is True
            for neighbour in graph.neighbors(node)
        )
    return decisions


def greedy_cluster_coloring(
    graph: nx.Graph, cluster: Cluster, partial: Dict[Any, Any]
) -> Dict[Any, int]:
    """First-fit colouring inside one cluster, honouring decided neighbours."""
    assignment: Dict[Any, int] = {}
    for node in _uid_order(graph, cluster):
        used = set()
        for neighbour in graph.neighbors(node):
            if neighbour in assignment:
                used.add(assignment[neighbour])
            elif partial.get(neighbour) is not None:
                used.add(partial[neighbour])
        color = 0
        while color in used:
            color += 1
        assignment[node] = color
    return assignment


def reference_mis(
    decomposition: NetworkDecomposition, ledger: Optional[RoundLedger] = None
) -> Set[Any]:
    solution = process_by_colors(decomposition, greedy_cluster_mis, ledger=ledger)
    return {node for node, selected in solution.items() if selected}


def reference_coloring(
    decomposition: NetworkDecomposition, ledger: Optional[RoundLedger] = None
) -> Dict[Any, int]:
    return process_by_colors(decomposition, greedy_cluster_coloring, ledger=ledger)
