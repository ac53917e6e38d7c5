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
from typing import Any, Iterable, Iterator, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster
from repro.clustering.decomposition import NetworkDecomposition
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import CSRGraph, csr_restriction
from repro.kernels import active_kernel


class _BallRule:
    """Stop rule of a ball's walk: end at the first layer that holds at most
    a ``stop_ratio`` share of the ball it would enlarge.  That layer is the
    ball's boundary; a walk that never meets one exhausts its component."""

    def __init__(self, stop_ratio: float) -> None:
        self.stop_ratio = stop_ratio
        self.ball = 0
        self.boundary: Optional[np.ndarray] = None

    def __call__(self, layers: List[np.ndarray]) -> bool:
        self.ball += layers[-2].size
        size = layers[-1].size
        if size <= self.stop_ratio * (self.ball + size):
            self.boundary = layers[-1]
            return True
        return False


def _grow(
    csr: CSRGraph, center: int, pool: bytearray, stop_ratio: float
) -> Tuple[List[np.ndarray], np.ndarray]:
    """Grow a ball around the index ``center`` through the pool until the
    next layer is light: ``(ball layers, boundary layer)``, index arrays.

    ``pool`` marks with 0 the indices the ball may take, ``center``
    included.  The walk marks every index it visits, ball and boundary,
    which is exactly what leaves the pool, and goes no further.
    """
    pool[center] = 1
    rule = _BallRule(stop_ratio)
    layers = active_kernel().bfs_layers(csr, [center], pool, stop=rule)
    if rule.boundary is None:
        return layers, layers[0][:0]
    return layers[:-1], rule.boundary


def _grow_ball(
    graph: nx.Graph,
    center: Any,
    allowed: Set[Any],
    stop_ratio: float,
) -> Tuple[Set[Any], Set[Any], int]:
    """Grow a ball around ``center`` until the next layer is light (by label).

    Returns ``(ball, boundary_layer, radius)`` where ``boundary_layer`` is the
    first layer outside the ball and
    ``len(boundary_layer) <= stop_ratio * (len(ball) + len(boundary_layer))``.
    """
    csr, effective = csr_restriction(graph, allowed)
    ball, boundary = _grow(csr, csr.index[center], _pool(csr, csr.indices_of(effective)), stop_ratio)
    labels = csr.nodes
    return (
        {labels[i] for layer in ball for i in layer.tolist()},
        {labels[i] for i in boundary.tolist()},
        len(ball) - 1,
    )


def _pool(csr: CSRGraph, members: Any) -> bytearray:
    """A mask with 0 at the indices ``members``, 1 elsewhere."""
    pool = bytearray(b"\x01") * csr.n
    np.frombuffer(pool, dtype=np.uint8)[members] = 0
    return pool


def _balls(
    csr: CSRGraph, members: np.ndarray, stop_ratio: float
) -> Iterator[Tuple[List[np.ndarray], np.ndarray]]:
    """Carve the indices ``members`` into balls, each grown by :func:`_grow`
    around the member first in the shared node order that no earlier ball
    or boundary took.  One pool serves every ball, so each index is walked
    once."""
    pool = _pool(csr, members)
    for center in members[np.argsort(csr.rank_array[members])].tolist():
        if not pool[center]:
            yield _grow(csr, center, pool, stop_ratio)


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

    csr, allowed = csr_restriction(graph, participating)
    labels = csr.nodes
    clusters: List[Cluster] = []
    dead: Set[Any] = set()
    max_radius = 0
    for ball, boundary in _balls(csr, csr.indices_of(allowed), stop_ratio=eps):
        members = frozenset([labels[i] for layer in ball for i in layer.tolist()])
        clusters.append(Cluster(nodes=members, label=("seq", len(clusters))))
        dead.update(labels[i] for i in boundary.tolist())
        max_radius = max(max_radius, len(ball) - 1)

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
    csr, allowed = csr_restriction(graph)
    labels = csr.nodes
    remaining = np.arange(csr.n) if allowed is None else csr.indices_of(allowed)
    clusters: List[Cluster] = []
    color = 0
    n = graph.number_of_nodes()
    max_colors = 4 * max(1, int(math.ceil(math.log2(max(2, n))))) + 8

    while remaining.size:
        if color >= max_colors:
            raise RuntimeError("sequential decomposition exceeded the expected color count")
        clustered: List[np.ndarray] = []
        for index, (ball, _) in enumerate(_balls(csr, remaining, stop_ratio=0.5)):
            members = np.concatenate(ball)
            clustered.append(members)
            clusters.append(
                Cluster(
                    nodes=frozenset([labels[i] for i in members.tolist()]),
                    label=("seq", color, index),
                    color=color,
                )
            )
        remaining = np.setdiff1d(remaining, np.concatenate(clustered), assume_unique=True)
        color += 1
        ledger.charge("sequential_color_class", 2 * max(1, int(math.ceil(math.log2(max(2, n))))))

    return NetworkDecomposition(graph=graph, clusters=clusters, ledger=ledger, kind="strong")
