"""The color-by-color processing template for network decompositions.

Given a ``(C, D)`` decomposition, many problems can be solved by processing
the color classes sequentially: clusters of one color are non-adjacent, so
they can compute in parallel, and each has diameter at most ``D``, so
gathering the cluster's relevant state at its centre, solving locally and
redistributing the answer costs ``O(D)`` rounds.  The total is ``O(C * D)``
rounds — the quantity that makes polylogarithmic ``C`` and ``D`` the right
target.

Two execution paths share this module's scheduling and round accounting:

* :func:`process_by_colors` — the generic template for arbitrary cluster
  handlers (with greedy handlers it is the tests' reference for the task
  solvers);
* the flat-array task loops in :mod:`repro.applications.mis` /
  :mod:`repro.applications.coloring`, which iterate the CSR adjacency rows
  directly but charge the *same* per-color template cost through
  :func:`charge_color_round`.

Node processing order inside a cluster is the one node order,
:attr:`repro.graphs.csr.CSRGraph.uid_rank` (by label:
:func:`repro.graphs.csr.node_rank`): uid first — robust to mixed
identifier types — then the node's string form as the final tie-break.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

import networkx as nx

from repro.clustering.cluster import Cluster
from repro.clustering.decomposition import NetworkDecomposition
from repro.congest.rounds import RoundLedger

# A cluster handler receives (graph, cluster, partial_solution) and returns
# the solution values for the cluster's nodes.  `partial_solution` holds the
# already-fixed values of all nodes processed in earlier colors (in
# particular, of every neighbour of the cluster that has already been
# decided), which is exactly the information a cluster can collect from its
# one-hop neighbourhood in O(1) rounds before solving internally.
ClusterHandler = Callable[[nx.Graph, Cluster, Dict[Any, Any]], Dict[Any, Any]]


def color_classes(decomposition: NetworkDecomposition):
    """The decomposition's ``(color, clusters)`` classes in color order, memoized.

    One O(clusters) grouping pass instead of re-scanning every cluster per
    color (``decomposition.clusters_of_color`` is O(clusters) *per call*).
    Cached on the decomposition object — its clustering is immutable by
    contract, and every task re-schedules the same classes.
    """
    cached = getattr(decomposition, "_color_classes_cache", None)
    if cached is not None:
        return cached
    classes: Dict[int, list] = {}
    for cluster in decomposition.clusters:
        classes.setdefault(cluster.color, []).append(cluster)
    ordered = tuple((color, tuple(classes[color])) for color in sorted(classes))
    object.__setattr__(decomposition, "_color_classes_cache", ordered)
    return ordered


def sorted_member_indices(cluster: Cluster, csr) -> list:
    """A cluster's CSR member indices in uid-sort order, memoized.

    The member order is fixed by the decomposition and the frozen index, so
    every task reuses one sort.  The cache is keyed by the index object
    itself — a re-frozen graph (new ``CSRGraph``) recomputes.
    """
    cached = getattr(cluster, "_member_order_cache", None)
    if cached is not None and cached[0] is csr:
        return cached[1]
    index_of = csr.index
    members = sorted(
        (index_of[node] for node in cluster.nodes), key=csr.uid_rank.__getitem__
    )
    object.__setattr__(cluster, "_member_order_cache", (csr, members))
    return members


def charge_color_round(ledger: RoundLedger, color_diameter: int) -> int:
    """Charge one color class's template cost: gather + solve + scatter.

    ``2 * D + 2`` rounds for a color whose largest cluster has diameter
    ``D`` — the standard argument, shared by the generic template and the
    flat-array task loops so the two paths charge identically.
    """
    return ledger.charge("template_color", 2 * color_diameter + 2)


def process_by_colors(
    decomposition: NetworkDecomposition,
    handler: ClusterHandler,
    ledger: Optional[RoundLedger] = None,
) -> Dict[Any, Any]:
    """Run ``handler`` on every cluster, color class by color class.

    Args:
        decomposition: The network decomposition to schedule on.
        handler: Per-cluster solver; it may only rely on the partial solution
            of previously processed colors (the template enforces this by
            construction: clusters of the same color are handled with the
            same snapshot of the partial solution).
        ledger: Optional round ledger; per color the template charges
            ``O(max cluster diameter of that color)`` rounds (gather, solve
            locally, scatter), mirroring the standard argument; the
            diameters come from the decomposition's ``geometry``.

    Returns:
        The combined solution mapping every node of the graph to its value.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    graph = decomposition.graph
    color_diameters = decomposition.geometry.color_diameters
    solution: Dict[Any, Any] = {}

    for color, clusters in color_classes(decomposition):
        snapshot = dict(solution)
        for cluster in clusters:
            values = handler(graph, cluster, snapshot)
            missing = cluster.nodes - set(values)
            if missing:
                raise ValueError(
                    "handler did not produce values for nodes {!r}".format(
                        sorted(missing, key=str)[:5]
                    )
                )
            for node in cluster.nodes:
                solution[node] = values[node]
        charge_color_round(ledger, color_diameters[color])

    return solution
