"""Centralized sequential ball growing (the [LS93] existential construction).

Linial and Saks observed that *every* graph admits a strong-diameter network
decomposition with ``O(log n)`` colors and ``O(log n)`` diameter, via a simple
sequential argument: repeatedly pick an arbitrary unclustered node, grow a
ball around it until the next layer would less than double the ball, take the
ball as a cluster and defer its boundary layer to the next color class.

This is *not* a distributed algorithm — it is the quality reference line the
benchmarks compare the distributed algorithms' cluster diameters and color
counts against (the "existential optimum" rows).  The carving variant
(:func:`greedy_sequential_carving`) stops growing a ball once its boundary
layer is at most an ``eps`` fraction of the enlarged ball, yielding diameter
``O(log n / eps)``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster
from repro.clustering.decomposition import NetworkDecomposition
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import node_rank
from repro.graphs.properties import bfs_layers_within


def _grow_ball(
    graph: nx.Graph,
    center: Any,
    allowed: Set[Any],
    stop_ratio: float,
) -> Tuple[Set[Any], Set[Any], int]:
    """Grow a ball around ``center`` until the next layer is light.

    Returns ``(ball, boundary_layer, radius)`` where ``boundary_layer`` is the
    first layer outside the ball and
    ``len(boundary_layer) <= stop_ratio * (len(ball) + len(boundary_layer))``.
    """
    layers = bfs_layers_within(graph, [center], allowed=allowed)
    ball: Set[Any] = set(layers[0])
    radius = 0
    while radius + 1 < len(layers):
        next_layer = layers[radius + 1]
        if len(next_layer) <= stop_ratio * (len(ball) + len(next_layer)):
            return ball, set(next_layer), radius
        ball |= next_layer
        radius += 1
    return ball, set(), radius


def greedy_sequential_carving(
    graph: nx.Graph,
    eps: float,
    nodes: Optional[Iterable[Any]] = None,
    ledger: Optional[RoundLedger] = None,
) -> BallCarving:
    """Centralized strong-diameter ball carving with parameter ``eps``.

    Repeatedly grows balls (from the smallest-identifier unprocessed node)
    until each ball's boundary layer is at most an ``eps`` fraction of the
    enlarged ball; the boundary layers are the removed nodes.  Cluster
    diameter is ``O(log n / eps)`` because every growth step multiplies the
    ball size by at least ``1 / (1 - eps)``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    ledger = ledger if ledger is not None else RoundLedger()
    participating: Set[Any] = set(graph.nodes()) if nodes is None else set(nodes)
    working_graph = graph.subgraph(participating)

    rank = node_rank(working_graph)
    remaining = set(participating)
    clusters: List[Cluster] = []
    dead: Set[Any] = set()
    index = 0
    max_radius = 0

    while remaining:
        center = min(remaining, key=rank)
        ball, boundary, radius = _grow_ball(working_graph, center, remaining, stop_ratio=eps)
        clusters.append(Cluster(nodes=frozenset(ball), label=("seq", index)))
        dead |= boundary
        remaining -= ball
        remaining -= boundary
        max_radius = max(max_radius, radius)
        index += 1

    # The construction is centralized; we charge the cost of the equivalent
    # global BFS sweeps so the benchmarks can still put it on a rounds axis.
    ledger.charge("sequential_ball_growing", 2 * (max_radius + 1))
    return BallCarving(
        graph=working_graph,
        clusters=clusters,
        dead=dead,
        eps=eps,
        ledger=ledger,
        kind="strong",
    )


def greedy_sequential_decomposition(
    graph: nx.Graph,
    ledger: Optional[RoundLedger] = None,
) -> NetworkDecomposition:
    """The [LS93] existential ``(O(log n), O(log n))`` strong decomposition.

    Per color class: sequentially carve balls (doubling condition, i.e.
    ``eps = 1/2``) from the nodes still uncolored, sending each ball's
    boundary layer to the pool of later colors.  At least half of the pool is
    clustered per color, so ``O(log n)`` colors suffice; every ball has radius
    at most ``log2 n``.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    remaining: Set[Any] = set(graph.nodes())
    rank = node_rank(graph)
    clusters: List[Cluster] = []
    color = 0
    n = graph.number_of_nodes()
    max_colors = 4 * max(1, int(math.ceil(math.log2(max(2, n))))) + 8

    while remaining:
        if color >= max_colors:
            raise RuntimeError("sequential decomposition exceeded the expected color count")
        pool = set(remaining)
        clustered_this_color: Set[Any] = set()
        index = 0
        while pool:
            center = min(pool, key=rank)
            ball, boundary, _ = _grow_ball(graph, center, pool, stop_ratio=0.5)
            clusters.append(
                Cluster(nodes=frozenset(ball), label=("seq", color, index), color=color)
            )
            clustered_this_color |= ball
            pool -= ball
            pool -= boundary
            index += 1
        remaining -= clustered_this_color
        color += 1
        ledger.charge("sequential_color_class", 2 * max(1, int(math.ceil(math.log2(max(2, n))))))

    return NetworkDecomposition(graph=graph, clusters=clusters, ledger=ledger, kind="strong")
