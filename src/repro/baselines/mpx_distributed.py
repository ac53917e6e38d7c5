"""A fully message-level MPX ball carving, run on the CONGEST simulator.

:mod:`repro.baselines.mpx` computes the Miller–Peng–Xu clustering centrally
(with real-valued exponential shifts) and charges rounds through the ledger.
This module is its *end-to-end simulated* counterpart: integer geometric
shifts, the competing-BFS node program of
:func:`repro.congest.primitives.shifted_multisource_bfs`, plus one extra
round in which every node compares its cluster with its neighbours' and the
"later" endpoint of every cross-cluster edge retires.  Every round and every
message of the execution is accounted for by the simulator, so the reported
round count and maximum message size are measured, not modelled.

The price of the fully distributed rule is a slightly weaker per-run deletion
guarantee (the expected removed fraction is ``O(eps * average_degree)`` in
the worst case, measured per run by the caller), which is why the
ledger-based :func:`repro.baselines.mpx.mpx_carving` remains the default
Table 2 row; this variant exists to certify, on the simulator, that a
strong-diameter carving really is achievable end to end with ``O(log n)``-bit
messages — the property the paper's whole story revolves around.
"""

from __future__ import annotations

import math
import random
from typing import Any, Dict, List, Optional, Set, Tuple

import networkx as nx

from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster, SteinerTree
from repro.congest.primitives import shifted_multisource_bfs
from repro.congest.rounds import RoundLedger
from repro.congest.simulator import SimulationReport
from repro.graphs.csr import node_rank
from repro.graphs.properties import induced_components


def _geometric_shift(rng: random.Random, eps: float, cap: int) -> int:
    """An integer shift with ``P(shift >= k+1 | shift >= k) = 1 - eps``, capped."""
    shift = 0
    while shift < cap and rng.random() > eps:
        shift += 1
    return shift


def mpx_distributed_carving(
    graph: nx.Graph,
    eps: float,
    rng: Optional[random.Random] = None,
    ledger: Optional[RoundLedger] = None,
) -> Tuple[BallCarving, SimulationReport]:
    """Run the simulated MPX carving and return it with the simulator report.

    Args:
        graph: Host graph (connected or not; every node participates).
        eps: Controls the geometric shift distribution (rate ``eps``) and
            hence the cluster radius ``O(log n / eps)`` and the expected
            fraction of cross-cluster edges.
        rng: Random source for the shifts.
        ledger: Optional ledger; the simulator-measured rounds (plus the one
            comparison round) are charged into it.

    Returns:
        ``(carving, report)`` where ``carving`` is a strong-diameter
        :class:`~repro.clustering.carving.BallCarving` and ``report`` is the
        :class:`~repro.congest.simulator.SimulationReport` of the shifted-BFS
        execution (rounds, messages, maximum message bits).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()

    n = graph.number_of_nodes()
    if n == 0:
        raise ValueError("cannot carve an empty graph")
    cap = max(1, int(math.ceil(2 * math.log(max(2, n)) / eps)))
    shifts = {node: _geometric_shift(rng, eps, cap) for node in graph.nodes()}

    centers, parents, report = shifted_multisource_bfs(graph, shifts)
    ledger.charge("mpx_distributed_bfs", report.rounds)
    ledger.local_step(1)

    # One exchange round: for every cross-cluster edge, the endpoint whose
    # capture was "later" (larger distance from its centre, ties by larger
    # centre identifier, then by larger own identifier) retires.  After this,
    # no two alive neighbours belong to different clusters.
    distance_of: Dict[Any, int] = {}
    for node, result in report.outputs.items():
        distance_of[node] = result["distance"] if result["distance"] is not None else 0

    rank = node_rank(graph)

    def retire_key(node: Any) -> Tuple[int, int, int]:
        return (distance_of[node], centers[node], rank(node))

    dead: Set[Any] = set()
    for u, v in graph.edges():
        if centers.get(u) != centers.get(v):
            dead.add(max((u, v), key=retire_key))

    alive_by_center: Dict[int, Set[Any]] = {}
    for node in graph.nodes():
        if node in dead:
            continue
        alive_by_center.setdefault(centers[node], set()).add(node)

    clusters: List[Cluster] = []
    for center_uid, members in sorted(alive_by_center.items()):
        # Killing nodes can split a cluster; each surviving component becomes
        # its own cluster (components of the same centre are non-adjacent by
        # definition, and components of different centres are non-adjacent
        # because every cross-centre edge lost one endpoint).
        for index, component in enumerate(induced_components(graph, members)):
            root = min(component, key=lambda node: (distance_of[node], str(node)))
            tree = _component_bfs_tree(graph, component, root)
            clusters.append(
                Cluster(nodes=frozenset(component), label=("mpx-sim", center_uid, index), tree=tree)
            )

    carving = BallCarving(
        graph=graph, clusters=clusters, dead=dead, eps=eps, ledger=ledger, kind="strong"
    )
    return carving, report


def _component_bfs_tree(graph: nx.Graph, component: Set[Any], root: Any) -> SteinerTree:
    """A BFS tree of the connected ``component`` rooted at ``root``.

    Strong-diameter clusters only need an internal (congestion-1) tree; a BFS
    tree inside the component is the canonical choice.
    """
    from repro.graphs.properties import bfs_layers_within

    parent: Dict[Any, Optional[Any]] = {root: None}
    layers = bfs_layers_within(graph, [root], allowed=component)
    for depth in range(1, len(layers)):
        for node in layers[depth]:
            for neighbour in graph.neighbors(node):
                if neighbour in layers[depth - 1] and neighbour in parent:
                    parent[node] = neighbour
                    break
    return SteinerTree(root=root, parent=parent)
