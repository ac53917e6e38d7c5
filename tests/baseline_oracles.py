"""Reference implementations of the LS93 and MPX baselines, walking networkx.

These are the per-centre BFS and the heap of Python tuples that the array
waves in :mod:`repro.baselines.linial_saks` and :mod:`repro.baselines.mpx`
replaced, kept as differential oracles.  Only their tree parents differ
from the originals: a parent is the min-uid neighbour one layer closer to
the centre, the rule the waves follow, so trees (and ``congestion()``)
compare exactly.  Radii and shifts are drawn by iterating the participating
set, as in the waves.
"""

from __future__ import annotations

import heapq
import math
import random
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.baselines.linial_saks import _radius_cap, _truncated_geometric
from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster, SteinerTree, edge_key
from repro.congest.rounds import RoundLedger
from repro.core.decomposition import decomposition_via_carving
from repro.core.edge_carving import EdgeCarving
from repro.graphs.csr import uid_order_key


def _rank_key(uid_of: Dict[Any, Any]):
    return lambda node: uid_order_key(uid_of[node]) + (str(node),)


def _bfs_layers(graph: nx.Graph, source: Any, max_radius: Optional[int] = None) -> List[Set[Any]]:
    """networkx's BFS layers of ``graph`` from ``source``, as sets."""
    layers = [set(layer) for layer in nx.bfs_layers(graph, [source])]
    return layers if max_radius is None else layers[: max_radius + 1]


def _components(graph: nx.Graph, nodes: Set[Any]) -> List[Set[Any]]:
    """networkx's components of ``graph[nodes]``, by first node in ``graph``'s order."""
    position = {node: i for i, node in enumerate(graph.nodes())}
    return sorted(
        nx.connected_components(graph.subgraph(nodes)),
        key=lambda component: min(position[node] for node in component),
    )


def ls93_carving(
    graph: nx.Graph,
    eps: float,
    nodes: Optional[Iterable[Any]] = None,
    ledger: Optional[RoundLedger] = None,
    rng: Optional[random.Random] = None,
) -> BallCarving:
    """LS93 with one restricted BFS per centre."""
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    participating: Set[Any] = set(graph.nodes()) if nodes is None else set(nodes)
    working_graph = graph.subgraph(participating)
    n = len(participating)
    if n == 0:
        return BallCarving(graph=working_graph, clusters=[], dead=set(), eps=eps, ledger=ledger, kind="weak")
    continuation = 1.0 - eps / 2.0
    cap = _radius_cap(n, eps)
    uid_of = {node: working_graph.nodes[node].get("uid", node) for node in participating}
    radius_of = {node: _truncated_geometric(rng, continuation, cap) for node in participating}

    best_offer: Dict[Any, Tuple[int, int, Any]] = {}
    for center in participating:
        layers = _bfs_layers(working_graph, center, max_radius=radius_of[center])
        for distance, layer in enumerate(layers):
            for node in layer:
                offer = (uid_of[center], -distance, center)
                if node not in best_offer or offer > best_offer[node]:
                    best_offer[node] = offer

    members: Dict[Any, Set[Any]] = {}
    dead: Set[Any] = set()
    for node in participating:
        _, negative_distance, center = best_offer[node]
        if -negative_distance < radius_of[center]:
            members.setdefault(center, set()).add(node)
        else:
            dead.add(node)

    key = _rank_key(uid_of)
    clusters: List[Cluster] = []
    for center, node_set in sorted(members.items(), key=lambda item: uid_of[item[0]]):
        parent: Dict[Any, Optional[Any]] = {center: None}
        layers = _bfs_layers(working_graph, center)
        for depth in range(1, len(layers)):
            for node in layers[depth]:
                parent[node] = min(
                    (nbr for nbr in working_graph.neighbors(node) if nbr in layers[depth - 1]),
                    key=key,
                )
        needed: Set[Any] = {center}
        for node in node_set:
            current = node
            while current is not None and current not in needed:
                needed.add(current)
                current = parent.get(current)
        pruned = {node: parent.get(node) for node in needed}
        pruned[center] = None
        clusters.append(
            Cluster(nodes=frozenset(node_set), label=("ls93", uid_of[center]),
                    tree=SteinerTree(root=center, parent=pruned))
        )
    ledger.charge("ls93_broadcast", 2 * cap + 2)
    return BallCarving(graph=working_graph, clusters=clusters, dead=dead, eps=eps, ledger=ledger, kind="weak")


def two_nearest_centers(
    graph: nx.Graph,
    allowed: Set[Any],
    shifts: Dict[Any, float],
    uid_of: Dict[Any, Any],
) -> Dict[Any, List[Tuple[float, Any, Any, Optional[Any]]]]:
    """Every node's two best ``(distance, centre uid, centre, predecessor)``
    labels from distinct centres: a multi-source Dijkstra over a heap.

    Entries with equal ``(distance, centre uid)`` pop in predecessor-uid
    order, so a label's predecessor is its min-uid neighbour.
    """
    key = _rank_key(uid_of)
    labels: Dict[Any, List[Tuple[float, Any, Any, Optional[Any]]]] = {node: [] for node in allowed}
    counter = 0
    heap: List[tuple] = []
    for center in sorted(allowed, key=lambda node: uid_of[node]):
        heapq.heappush(heap, (-shifts[center], uid_of[center], (-1,), counter, center, center, None))
        counter += 1
    while heap:
        distance, center_uid, _, _, center, node, predecessor = heapq.heappop(heap)
        existing = labels[node]
        if any(entry[2] == center for entry in existing) or len(existing) >= 2:
            continue
        existing.append((distance, center_uid, center, predecessor))
        for neighbour in graph.neighbors(node):
            if neighbour in allowed:
                heapq.heappush(
                    heap, (distance + 1.0, center_uid, key(node), counter, center, neighbour, node)
                )
                counter += 1
    return labels


def mpx_carving(
    graph: nx.Graph,
    eps: float,
    nodes: Optional[Iterable[Any]] = None,
    ledger: Optional[RoundLedger] = None,
    rng: Optional[random.Random] = None,
) -> BallCarving:
    """MPX with the heap of :func:`two_nearest_centers`."""
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()
    participating: Set[Any] = set(graph.nodes()) if nodes is None else set(nodes)
    working_graph = graph.subgraph(participating)
    if not participating:
        return BallCarving(graph=working_graph, clusters=[], dead=set(), eps=eps, ledger=ledger)
    uid_of = {node: working_graph.nodes[node].get("uid", node) for node in participating}
    shifts = {node: rng.expovariate(eps) for node in participating}
    labels = two_nearest_centers(working_graph, participating, shifts, uid_of)

    assignment: Dict[Any, Any] = {}
    predecessor: Dict[Any, Optional[Any]] = {}
    dead: Set[Any] = set()
    for node in participating:
        entries = labels[node]
        best = entries[0]
        slack = (entries[1][0] - best[0]) if len(entries) > 1 else float("inf")
        if slack <= 1.0:
            dead.add(node)
        else:
            assignment[node] = best[2]
            predecessor[node] = best[3]

    members: Dict[Any, Set[Any]] = {}
    for node, center in assignment.items():
        members.setdefault(center, set()).add(node)
    clusters: List[Cluster] = []
    for center, node_set in sorted(members.items(), key=lambda item: uid_of[item[0]]):
        parent: Dict[Any, Optional[Any]] = {center: None}
        for node in node_set:
            if node != center:
                parent[node] = predecessor[node]
        clusters.append(
            Cluster(nodes=frozenset(node_set), label=("mpx", uid_of[center]),
                    tree=SteinerTree(root=center, parent=parent))
        )
    max_shift = max(shifts.values())
    max_radius = max((cluster.tree.depth() for cluster in clusters), default=0)
    ledger.charge("mpx_shifted_bfs", int(math.ceil(max_shift)) + max_radius + 2)
    return BallCarving(graph=working_graph, clusters=clusters, dead=dead, eps=eps, ledger=ledger,
                       kind="strong")


def mpx_edge_carving(
    graph: nx.Graph,
    eps: float,
    ledger: Optional[RoundLedger] = None,
    rng: Optional[random.Random] = None,
) -> EdgeCarving:
    """The MPX edge version over the heap's best centres."""
    ledger = ledger if ledger is not None else RoundLedger()
    rng = rng or random.Random(0)
    nodes = set(graph.nodes())
    if not nodes:
        return EdgeCarving(graph=graph, clusters=[], removed_edges=set(), eps=eps, ledger=ledger)
    uid_of = {node: graph.nodes[node].get("uid", node) for node in nodes}
    shifts = {node: rng.expovariate(eps) for node in nodes}
    labels = two_nearest_centers(graph, nodes, shifts, uid_of)
    assignment = {node: entries[0][2] for node, entries in labels.items()}
    members: Dict[Any, Set[Any]] = {}
    for node, center in assignment.items():
        members.setdefault(center, set()).add(node)
    removed = {
        edge_key(u, v) for u, v in graph.edges() if assignment[u] != assignment[v]
    }
    clusters: List[Cluster] = []
    for index, (center, node_set) in enumerate(
        sorted(members.items(), key=lambda item: uid_of[item[0]])
    ):
        for component in _components(graph, node_set):
            clusters.append(Cluster(nodes=frozenset(component), label=("edge-mpx", index, len(clusters))))
    ledger.charge("mpx_edge_shifted_bfs", int(math.ceil(max(shifts.values()))) + 2)
    return EdgeCarving(graph=graph, clusters=clusters, removed_edges=removed, eps=eps, ledger=ledger)


def ls93_decomposition(graph: nx.Graph, rng: random.Random):
    def carving(host, eps, nodes=None, ledger=None):
        return ls93_carving(host, eps, nodes=nodes, ledger=ledger, rng=rng)

    return decomposition_via_carving(graph, carving, eps=0.5, kind="weak")


def mpx_decomposition(graph: nx.Graph, rng: random.Random):
    def carving(host, eps, nodes=None, ledger=None):
        return mpx_carving(host, eps, nodes=nodes, ledger=ledger, rng=rng)

    return decomposition_via_carving(graph, carving, eps=0.5, kind="strong")
