"""Linial–Saks randomized weak-diameter clustering [LS93].

Each node ``v`` independently draws a radius ``r_v`` from a truncated
geometric distribution and (conceptually) broadcasts ``(uid_v, r_v)`` to its
``r_v``-hop neighbourhood.  Every node ``u`` considers the candidates ``v``
with ``dist(u, v) <= r_v`` and joins the cluster of the candidate with the
largest identifier; ``u`` is *captured* (clustered) when that distance is
strictly smaller than ``r_v``, and left unclustered (for this repetition) when
the distance equals ``r_v`` exactly.  The memorylessness of the geometric
distribution makes the capture probability at least the distribution's
continuation probability, independently for every node.

Parameters (matching Table 2's weak randomized row): with continuation
probability ``p = 1 - eps/2`` and radius cap ``B = O(log n / eps)`` the
clusters have weak diameter ``O(log n / eps)`` and the expected unclustered
fraction is at most ``eps`` (``eps/2`` from capture failures plus an
``n^{-Omega(1)}`` term from the truncation).

**The max-offer wave.**  The broadcasts run as one wave over the induced
CSR rows of the participating set (:func:`repro.graphs.csr.induced_rows`,
local indices in uid order).  With
``rank(v)`` the uid rank, level ``B_k`` is computed from ``k = max r`` down
to ``0`` as::

    B_k(v) = max(rank(v) if r_v >= k else -1,  max over neighbours w of B_{k+1}(w))

so ``B_k(v)`` is the highest-uid centre ``c`` with ``dist(c, v) <= r_c - k``
— one segment max over the rows per level, ``O(m * max r)`` array work in
place of a BFS per centre.  ``v``'s owner is ``B_0(v)``, and ``v`` is
captured iff ``B_1(v) = B_0(v)``.  The lowest level ``K(v)`` at which
``v``'s offer changed gives its distance to the owner, ``r_owner - K(v)``,
so no second pass is needed to find the deepest member of a cluster.

**Steiner trees.**  Each cluster's tree comes from one BFS from its centre
inside the participating set, bounded by the deepest member's distance
(at most ``r_c - 1``).  A node's tree parent is its min-uid neighbour one
BFS layer closer to the centre — a rule a CONGEST node can follow from its
neighbours' uids, independent of adjacency order — and the tree is pruned
to the centre-to-member paths.  The radii are drawn by iterating the
participating set, as they always were, so the clusterings of a seeded run
are unchanged.
"""

from __future__ import annotations

import math
import random
from typing import Any, Iterable, List, Optional, Set

import networkx as nx
import numpy as np

from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster, SteinerTree
from repro.clustering.decomposition import NetworkDecomposition
from repro.congest.rounds import RoundLedger
from repro.core.decomposition import decomposition_via_carving
from repro.graphs.csr import InducedRows, csr_index, induced_rows
from repro.kernels.numpy_kernel import row_entries


def _truncated_geometric(rng: random.Random, continuation: float, cap: int) -> int:
    """Draw ``r`` with ``P(r >= k+1 | r >= k) = continuation``, capped."""
    radius = 0
    while radius < cap and rng.random() < continuation:
        radius += 1
    return radius


def _radius_cap(n: int, eps: float) -> int:
    """Truncation point ``B = O(log n / eps)``: the probability that an
    untruncated geometric exceeds ``B`` is below ``1/n``."""
    continuation = 1.0 - eps / 2.0
    if continuation <= 0.0:
        return 1
    bound = math.log(max(2, n)) / -math.log(continuation)
    return max(1, int(math.ceil(bound)) + 1)


def linial_saks_carving(
    graph: nx.Graph,
    eps: float,
    nodes: Optional[Iterable[Any]] = None,
    ledger: Optional[RoundLedger] = None,
    rng: Optional[random.Random] = None,
) -> BallCarving:
    """One repetition of the LS93 clustering as a weak-diameter ball carving.

    Args:
        graph: Host graph.
        eps: Boundary parameter — the *expected* unclustered fraction is at
            most ``eps`` (this is a randomized guarantee; the benchmarks
            report the measured fraction).
        nodes: Optional node subset to operate on.
        ledger: Round ledger; the repetition costs ``O(log n / eps)`` rounds
            (broadcasting within the radius cap, as in [LS93]).
        rng: Random source (seed it for reproducibility).

    Returns:
        A weak-diameter :class:`~repro.clustering.carving.BallCarving`.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()

    participating: Set[Any] = set(graph.nodes()) if nodes is None else set(nodes)
    working_graph = graph.subgraph(participating)
    n = len(participating)
    if n == 0:
        return BallCarving(graph=working_graph, clusters=[], dead=set(), eps=eps, ledger=ledger, kind="weak")

    continuation = 1.0 - eps / 2.0
    cap = _radius_cap(n, eps)
    drawn = list(participating)
    rows = induced_rows(csr_index(working_graph), drawn)
    radius = np.empty(n, dtype=np.int32)
    radius[rows.position] = [_truncated_geometric(rng, continuation, cap) for _ in drawn]

    owner, settled = _max_offer_wave(rows, radius)
    captured = settled >= 1
    labels = rows.nodes
    dead = {labels[i] for i in np.flatnonzero(~captured).tolist()}
    clusters = _build_clusters(rows, radius, owner, settled, captured)
    ledger.charge("ls93_broadcast", 2 * cap + 2)
    return BallCarving(
        graph=working_graph,
        clusters=clusters,
        dead=dead,
        eps=eps,
        ledger=ledger,
        kind="weak",
    )


def _max_offer_wave(rows: InducedRows, radius: np.ndarray):
    """``(B_0, K)``: every node's owner, and the lowest level at which its
    offer changed (see the module docstring).

    The loop starts from ``B_{max r + 1} = -1`` everywhere, so ``B_1`` is that
    initial level when ``max r = 0`` — and a node whose offer changed only at
    level 0 is exactly a node with ``B_1 != B_0``.
    """
    indices, starts = rows.indices, rows.indptr[:-1]
    me = np.arange(rows.n, dtype=np.int32)
    offer = np.full(rows.n, -1, dtype=np.int32)
    settled = np.zeros(rows.n, dtype=np.int32)
    for level in range(int(radius.max()), -1, -1):
        # Rows hold the node itself, and B_{k+1}(v) <= B_k(v), so the segment
        # max over the closed neighbourhood is the neighbours' term as is.
        reached = np.maximum.reduceat(offer[indices], starts)
        np.maximum(reached, np.where(radius >= level, me, -1), out=reached)
        settled[reached != offer] = level
        offer = reached
    return offer, settled


def _build_clusters(
    rows: InducedRows,
    radius: np.ndarray,
    owner: np.ndarray,
    settled: np.ndarray,
    captured: np.ndarray,
) -> List[Cluster]:
    """The LS93 clusters in centre-uid order, each with its pruned BFS tree."""
    members = np.flatnonzero(captured)
    if not members.size:
        return []
    members = members[np.argsort(owner[members], kind="stable")]
    centres, firsts = np.unique(owner[members], return_index=True)
    reach = np.maximum.reduceat((radius[owner] - settled)[members], firsts)
    # Scratch shared by every cluster: ``distance`` and ``needed`` are reset
    # at the touched entries only; ``parent`` and ``first`` are only read
    # where they were just written.
    distance = np.full(rows.n, -1, dtype=np.int32)
    needed = np.zeros(rows.n, dtype=bool)
    parent = np.empty(rows.n, dtype=np.int32)
    first = np.empty(rows.n, dtype=np.int64)
    labels, uids, indices = rows.nodes, rows.uids, rows.indices
    member_list = members.tolist()
    bounds = firsts.tolist()[1:] + [len(member_list)]
    clusters: List[Cluster] = []
    start = 0
    for centre, depth, stop in zip(centres.tolist(), reach.tolist(), bounds):
        group = member_list[start:stop]
        start = stop
        tree = {labels[centre]: None}
        if depth:
            distance[centre] = 0
            layers = [np.array([centre])]
            for layer in range(1, depth + 1):
                # Rows are scanned in ascending (uid) order, so a node's
                # first occurrence comes from its min-uid parent.
                positions, counts = row_entries(rows.indptr, layers[-1])
                reached = indices[positions]
                fresh = distance[reached] < 0
                reached = reached[fresh]
                via = np.repeat(layers[-1], counts)[fresh]
                order = np.arange(reached.size)
                first[reached[::-1]] = order[::-1]
                once = first[reached] == order
                reached = reached[once]
                parent[reached] = via[once]
                distance[reached] = layer
                reached.sort()
                layers.append(reached)
            needed[group] = True
            for layer in reversed(layers[1:]):
                needed[parent[layer[needed[layer]]]] = True
            ball = np.concatenate(layers[1:])
            path = ball[needed[ball]]
            tree.update(zip([labels[i] for i in path.tolist()], [labels[i] for i in parent[path].tolist()]))
            needed[ball] = False
            needed[centre] = False
            distance[ball] = -1
            distance[centre] = -1
        clusters.append(
            Cluster(
                nodes=frozenset([labels[i] for i in group]),
                label=("ls93", uids[centre]),
                tree=SteinerTree(root=labels[centre], parent=tree),
            )
        )
    return clusters


def linial_saks_decomposition(
    graph: nx.Graph,
    ledger: Optional[RoundLedger] = None,
    rng: Optional[random.Random] = None,
) -> NetworkDecomposition:
    """The full LS93 weak-diameter network decomposition: ``O(log n)`` colors
    and ``O(log n)`` weak diameter with high probability, via repetitions of
    :func:`linial_saks_carving` with ``eps = 1/2``."""
    rng = rng or random.Random(0)

    def carving(host, eps, nodes=None, ledger=None):
        return linial_saks_carving(host, eps, nodes=nodes, ledger=ledger, rng=rng)

    return decomposition_via_carving(graph, carving, eps=0.5, ledger=ledger, kind="weak")
