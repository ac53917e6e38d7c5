"""The edge version of ball carving (end of Section 1.3 of the paper).

Besides the node version (remove at most an ``eps`` fraction of *nodes*), the
paper notes that all of its ball-carving results also hold for the **edge
version**: remove at most an ``eps`` fraction of the *edges* so that the
remaining connected components have small strong diameter.  "The proofs for
the edge version are essentially the same as that for the node version."

This module provides the edge-version counterparts used by the ablation
benchmark and the test suite:

* :class:`EdgeCarving` — the result type (clusters + removed edges) with its
  validator;
* :func:`sequential_edge_carving` — centralized edge-boundary ball growing,
  the edge analogue of the [LS93] existential construction: grow a ball until
  the number of edges leaving it is at most ``eps`` times the number of edges
  inside it (each growth step then multiplies the internal edge count by
  ``> 1 + eps``, giving radius ``O(log m / eps)``);
* :func:`mpx_edge_carving` — the randomized MPX edge version: every edge whose
  endpoints end up in different shifted-BFS clusters is cut, which happens
  with probability ``O(eps)`` per edge;
* :func:`edge_carving_from_node_carving` — the generic adapter the paper
  alludes to: run a node carving on the graph's *line-graph-free* surrogate —
  concretely, run the node version with parameter ``eps / 2`` weighted by
  degrees — and cut exactly the edges incident to removed nodes plus the
  (necessarily absent) inter-cluster edges.  The number of cut edges is at
  most ``sum_{v dead} deg(v)``, which the validator measures.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.baselines.mpx import mpx_carving, two_nearest_centers
from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster, edge_key
from repro.clustering.validation import ValidationError, strong_diameter
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import csr_index, induced_rows, node_rank
from repro.graphs.properties import bfs_layers_within, induced_components, neighbors_resolver


@dataclasses.dataclass
class EdgeCarving:
    """Clusters plus removed edges produced by an edge-version ball carving.

    Attributes:
        graph: The host graph.
        clusters: Node sets of the clusters; within a cluster only non-removed
            edges are used, and no non-removed edge connects two clusters.
        removed_edges: The cut edges, keyed by
            :func:`~repro.clustering.cluster.edge_key`.
        eps: The boundary parameter (fraction of edges allowed to be cut).
        ledger: Round ledger of the producing algorithm.
    """

    graph: nx.Graph
    clusters: List[Cluster]
    removed_edges: Set[Tuple[Any, Any]]
    eps: float
    ledger: RoundLedger = dataclasses.field(default_factory=RoundLedger)

    @property
    def removed_fraction(self) -> float:
        """Fraction of the graph's edges that were removed."""
        m = self.graph.number_of_edges()
        return len(self.removed_edges) / m if m else 0.0

    @property
    def rounds(self) -> int:
        """Total CONGEST rounds charged by the producing algorithm."""
        return self.ledger.total_rounds

    def surviving_graph(self) -> nx.Graph:
        """The graph with the removed edges deleted (nodes all kept)."""
        survivor = nx.Graph()
        survivor.add_nodes_from(self.graph.nodes(data=True))
        for u, v in self.graph.edges():
            if edge_key(u, v) not in self.removed_edges:
                survivor.add_edge(u, v)
        return survivor

    def summary(self) -> Dict[str, Any]:
        """A compact dictionary of the quantities the benchmarks report."""
        return {
            "eps": self.eps,
            "n": self.graph.number_of_nodes(),
            "m": self.graph.number_of_edges(),
            "clusters": len(self.clusters),
            "removed_edges": len(self.removed_edges),
            "removed_fraction": self.removed_fraction,
            "rounds": self.rounds,
        }


def check_edge_carving(
    carving: EdgeCarving,
    max_diameter: Optional[int] = None,
    max_removed_fraction: Optional[float] = None,
) -> None:
    """Validate an edge carving.

    * every node belongs to exactly one cluster;
    * every removed edge is an edge of the graph;
    * no surviving edge connects two different clusters;
    * each cluster is connected in the surviving graph, with strong diameter
      at most ``max_diameter`` when given;
    * at most ``max_removed_fraction`` (default: the carving's ``eps``) of the
      edges are removed, with one edge of integer slack.
    """
    graph = carving.graph
    owner: Dict[Any, int] = {}
    for index, cluster in enumerate(carving.clusters):
        for node in cluster.nodes:
            if node in owner:
                raise ValidationError("node {!r} belongs to two clusters".format(node))
            owner[node] = index
    if set(owner) != set(graph.nodes()):
        raise ValidationError("edge carving clusters must cover every node")

    edge_set = {edge_key(u, v) for u, v in graph.edges()}
    for edge in carving.removed_edges:
        if edge_key(*edge) not in edge_set:
            raise ValidationError("removed edge {!r} is not an edge of the graph".format(edge))

    survivor = carving.surviving_graph()
    for u, v in survivor.edges():
        if owner[u] != owner[v]:
            raise ValidationError(
                "surviving edge ({!r}, {!r}) connects two clusters".format(u, v)
            )

    allowed = carving.eps if max_removed_fraction is None else max_removed_fraction
    m = graph.number_of_edges()
    if m > 0 and len(carving.removed_edges) > allowed * m + 1:
        raise ValidationError(
            "removed {} edges, more than the allowed fraction {:.3f}".format(
                len(carving.removed_edges), allowed
            )
        )

    for cluster in carving.clusters:
        diameter = strong_diameter(survivor, cluster.nodes)
        if max_diameter is not None and diameter > max_diameter:
            raise ValidationError(
                "cluster diameter {} exceeds bound {}".format(diameter, max_diameter)
            )


def _internal_and_boundary_edges(
    graph: nx.Graph, ball: Set[Any], allowed_edges: Set[Tuple[Any, Any]]
) -> Tuple[int, List[Tuple[Any, Any]]]:
    """Count surviving edges inside ``ball`` and list those leaving it."""
    internal = 0
    boundary: List[Tuple[Any, Any]] = []
    neighbours_of = neighbors_resolver(graph)
    for node in ball:
        for neighbour in neighbours_of(node):
            edge = edge_key(node, neighbour)
            if edge not in allowed_edges:
                continue
            if neighbour in ball:
                internal += 1
            else:
                boundary.append(edge)
    return internal // 2, boundary


def sequential_edge_carving(
    graph: nx.Graph,
    eps: float,
    ledger: Optional[RoundLedger] = None,
) -> EdgeCarving:
    """Centralized edge-version ball growing with parameter ``eps``.

    Repeatedly grows a ball from the smallest-identifier unprocessed node
    until the number of (surviving) edges leaving the ball is at most ``eps``
    times the number of edges with both endpoints inside it (at least one);
    those leaving edges are then cut.  Every failed stop test multiplies the
    internal edge count by more than ``1 + eps``, so the radius is
    ``O(log m / eps)``, and the total number of cut edges is at most an
    ``eps`` fraction of all edges (each cut edge is charged to the internal
    edges of its ball, and internal edge sets of different balls are
    disjoint).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    ledger = ledger if ledger is not None else RoundLedger()

    rank = node_rank(graph)
    allowed_edges = {edge_key(u, v) for u, v in graph.edges()}
    unprocessed = set(graph.nodes())
    clusters: List[Cluster] = []
    removed: Set[Tuple[Any, Any]] = set()
    index = 0
    max_radius = 0

    while unprocessed:
        center = min(unprocessed, key=rank)
        layers = bfs_layers_within(graph, [center], allowed=unprocessed)
        ball: Set[Any] = set(layers[0])
        radius = 0
        while True:
            internal, boundary = _internal_and_boundary_edges(graph, ball, allowed_edges)
            # Only count boundary edges towards still-unprocessed nodes; edges
            # towards already-carved balls were cut when those balls stopped.
            live_boundary = [
                edge for edge in boundary if edge[0] in unprocessed and edge[1] in unprocessed
            ]
            if len(live_boundary) <= eps * max(1, internal) or radius + 1 >= len(layers):
                removed.update(live_boundary)
                break
            ball |= layers[radius + 1]
            radius += 1
        clusters.append(Cluster(nodes=frozenset(ball), label=("edge-seq", index)))
        unprocessed -= ball
        max_radius = max(max_radius, radius)
        index += 1

    ledger.charge("sequential_edge_ball_growing", 2 * (max_radius + 1))
    return EdgeCarving(graph=graph, clusters=clusters, removed_edges=removed, eps=eps, ledger=ledger)


def mpx_edge_carving(
    graph: nx.Graph,
    eps: float,
    ledger: Optional[RoundLedger] = None,
    rng: Optional[random.Random] = None,
) -> EdgeCarving:
    """The randomized MPX edge version: cut every inter-cluster edge.

    Runs the MPX shifted-BFS partition with rate ``beta = eps`` (no node is
    removed — every node keeps its cluster) and cuts exactly the edges whose
    endpoints lie in different clusters; by the standard MPX analysis each
    edge is cut with probability ``O(eps)``, so the expected removed fraction
    is ``O(eps)``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    ledger = ledger if ledger is not None else RoundLedger()
    rng = rng or random.Random(0)

    # The node carving's shifted-BFS wave, keeping the dead nodes: every
    # node's best centre is exactly the MPX partition.
    nodes = set(graph.nodes())
    if not nodes:
        return EdgeCarving(graph=graph, clusters=[], removed_edges=set(), eps=eps, ledger=ledger)
    drawn = list(nodes)
    draws = [rng.expovariate(eps) for _ in drawn]
    rows = induced_rows(csr_index(graph), drawn)
    shifts = np.empty(len(drawn))
    shifts[rows.position] = draws
    best_centre = two_nearest_centers(rows, shifts)[1]
    centre_of = [rows.nodes[i] for i in best_centre[rows.position].tolist()]
    assignment = dict(zip(drawn, centre_of))

    members: Dict[Any, Set[Any]] = {}
    for node, center in assignment.items():
        members.setdefault(center, set()).add(node)

    removed: Set[Tuple[Any, Any]] = set()
    for u, v in graph.edges():
        if assignment.get(u) != assignment.get(v):
            removed.add(edge_key(u, v))

    clusters: List[Cluster] = []
    rank = node_rank(graph)
    for index, (center, node_set) in enumerate(
        sorted(members.items(), key=lambda item: rank(item[0]))
    ):
        # A cluster of the MPX partition is connected, but removing the
        # inter-cluster edges cannot disconnect it (all its internal edges
        # survive); still, be defensive and split by surviving components.
        for component in induced_components(graph, node_set):
            clusters.append(Cluster(nodes=frozenset(component), label=("edge-mpx", index, len(clusters))))

    max_shift = max(draws)
    ledger.charge("mpx_edge_shifted_bfs", int(math.ceil(max_shift)) + 2)
    return EdgeCarving(graph=graph, clusters=clusters, removed_edges=removed, eps=eps, ledger=ledger)


def edge_carving_from_node_carving(
    graph: nx.Graph,
    eps: float,
    node_carving: Optional[Callable[..., BallCarving]] = None,
    ledger: Optional[RoundLedger] = None,
) -> EdgeCarving:
    """Adapter: obtain an edge carving from any node-version ball carving.

    Runs the node carving with a boundary parameter scaled down by the average
    degree (so that the edges incident to removed nodes stay an ``O(eps)``
    fraction of all edges), then cuts exactly the edges incident to removed
    nodes; removed nodes become singleton clusters.  This is the generic
    "essentially the same proof" route the paper mentions; the removed-edge
    fraction is *measured* by the validator rather than assumed.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    ledger = ledger if ledger is not None else RoundLedger()
    if node_carving is None:
        from repro.core.strong_carving import theorem22_carving

        node_carving = theorem22_carving

    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    if n == 0:
        return EdgeCarving(graph=graph, clusters=[], removed_edges=set(), eps=eps, ledger=ledger)
    average_degree = max(1.0, 2.0 * m / n)
    node_eps = min(0.5, eps / average_degree)

    carving = node_carving(graph, node_eps, ledger=ledger)
    removed: Set[Tuple[Any, Any]] = set()
    neighbours_of = neighbors_resolver(graph)
    for node in carving.dead:
        for neighbour in neighbours_of(node):
            removed.add(edge_key(node, neighbour))

    clusters: List[Cluster] = [
        Cluster(nodes=cluster.nodes, label=("edge-adapter", index))
        for index, cluster in enumerate(carving.clusters)
    ]
    for node in sorted(carving.dead, key=str):
        clusters.append(Cluster(nodes=frozenset({node}), label=("edge-adapter-dead", str(node))))

    return EdgeCarving(graph=graph, clusters=clusters, removed_edges=removed, eps=eps, ledger=ledger)
