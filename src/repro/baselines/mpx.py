"""Miller–Peng–Xu / Elkin–Neiman randomized strong-diameter clustering.

Every node ``v`` draws a shift ``delta_v`` from an exponential distribution
with rate ``beta``; node ``u`` is assigned to the centre ``v`` minimising the
*shifted distance* ``dist(u, v) - delta_v``.  The resulting clusters are
connected (each node's shortest-path predecessor towards its centre is in the
same cluster), have strong radius ``max_v delta_v = O(log n / beta)`` with
high probability, and every node's "slack" (second-best shifted distance
minus best) exceeds 1 with probability at least ``e^{-beta} >= 1 - beta``.

For the **ball carving** variant we remove exactly the low-slack nodes
(slack <= 1): any two adjacent surviving nodes must then belong to the same
cluster, and the surviving part of each cluster remains connected because a
surviving node's predecessor has even larger slack.  Taking ``beta = eps``
yields an expected removed fraction of at most ``eps`` and strong diameter
``O(log n / eps)`` — the strong randomized row of Table 2.

For the **network decomposition** (Table 1's strong randomized row) we apply
the usual reduction: repeat the carving with ``eps = 1/2`` and give color
``i`` to the clusters of repetition ``i``  [MPX13, EN16].

**The top-2 label wave.**  :func:`two_nearest_centers` runs over the
induced CSR rows of the participating set
(:func:`repro.graphs.csr.induced_rows`, local indices in uid order).
Every node keeps its best two labels
``(shifted distance, centre)`` from distinct centres, ordered by distance
and then centre uid.  Each round, a node's new best label is the minimum of
its own best and every neighbour's best plus ``1.0``; its new second label
is the minimum, over labels whose centre differs from the new best, of its
own labels and one label per neighbour: that neighbour's best plus ``1.0``,
or its second plus ``1.0`` when its best has the node's new centre.  The
wave stops when no label changes, which is exactly the top two.  Each
round is a pair of row-segment minima (``np.minimum.reduceat`` on the
distance, then on the centre among the tied entries), never a sort.

Shifted distances are added hop by hop, starting at ``-delta_c`` and adding
``1.0`` per hop, never written as ``k - delta_c``: the two can round
differently, and the ``slack <= 1.0`` test sees the last bit.  A node's hop
count is the round in which its best label last changed; the tree depth is
read from it.  A surviving node's tree parent is its min-uid neighbour with
the same centre one hop closer — a rule a CONGEST node can follow from its
neighbours' uids, independent of adjacency order.  The shifts are drawn by
iterating the participating set, as they always were, so the clusterings of
a seeded run are unchanged.
"""

from __future__ import annotations

import math
import random
from typing import Any, Iterable, List, Optional, Set, Tuple

import networkx as nx
import numpy as np

from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster, SteinerTree
from repro.clustering.decomposition import NetworkDecomposition
from repro.congest.rounds import RoundLedger
from repro.core.decomposition import decomposition_via_carving
from repro.graphs.csr import InducedRows, csr_index, induced_rows
from repro.kernels.numpy_kernel import row_entries


def _row_minimum(
    distance: np.ndarray, centre: np.ndarray, starts: np.ndarray, row_of: np.ndarray, none: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per row, the least ``(distance, centre)`` entry, compared in that order."""
    least = np.minimum.reduceat(distance, starts)
    tied = np.where(distance == least[row_of], centre, none)
    return least, np.minimum.reduceat(tied, starts)


def _improves(
    distance: np.ndarray, centre: np.ndarray, old_distance: np.ndarray, old_centre: np.ndarray
) -> np.ndarray:
    return (distance < old_distance) | ((distance == old_distance) & (centre < old_centre))


def two_nearest_centers(
    rows: InducedRows, shifts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every node's best two labels from distinct centres (module docstring).

    Args:
        rows: The participating set's induced rows.
        shifts: float64 shift ``delta`` per local index.

    Returns:
        ``(best_distance, best_centre, second_distance, second_centre,
        hops)`` per local index: centres are local indices, a node without
        a second label has ``second_distance = inf`` and ``second_centre =
        n``, and ``hops`` is the length of the path realising the best
        label.
    """
    n = rows.n
    indices, starts = rows.indices, rows.indptr[:-1]
    row_of = np.repeat(np.arange(n, dtype=np.int32), np.diff(rows.indptr))
    best_distance = -shifts
    best_centre = np.arange(n, dtype=np.int32)
    second_distance = np.full(n, np.inf)
    second_centre = np.full(n, n, dtype=np.int32)
    hops = np.zeros(n, dtype=np.int32)
    wave = 0
    while True:
        wave += 1
        offered = best_distance[indices] + 1.0
        offered_centre = best_centre[indices]
        distance, centre = _row_minimum(offered, offered_centre, starts, row_of, n)
        moved = _improves(distance, centre, best_distance, best_centre)
        new_distance = np.where(moved, distance, best_distance)
        new_centre = np.where(moved, centre, best_centre)

        clash = offered_centre == new_centre[row_of]
        offered = np.where(clash, second_distance[indices] + 1.0, offered)
        offered_centre = np.where(clash, second_centre[indices], offered_centre)
        distance, centre = _row_minimum(offered, offered_centre, starts, row_of, n)
        # The node's own candidate: its old best unless that has the new best
        # centre, else its old second.
        kept = best_centre != new_centre
        own_distance = np.where(kept, best_distance, second_distance)
        own_centre = np.where(kept, best_centre, second_centre)
        taken = _improves(distance, centre, own_distance, own_centre)
        distance = np.where(taken, distance, own_distance)
        centre = np.where(taken, centre, own_centre)

        if not (
            moved.any()
            or (centre != second_centre).any()
            or (distance != second_distance).any()
        ):
            return best_distance, best_centre, second_distance, second_centre, hops
        hops[moved] = wave
        best_distance, best_centre = new_distance, new_centre
        second_distance, second_centre = distance, centre


def _tree_parents(
    rows: InducedRows, members: np.ndarray, centre: np.ndarray, hops: np.ndarray
) -> np.ndarray:
    """Each member's min-uid neighbour with its centre, one hop closer."""
    positions, counts = row_entries(rows.indptr, members)
    neighbours = rows.indices[positions]
    closer = (centre[neighbours] == np.repeat(centre[members], counts)) & (
        hops[neighbours] == np.repeat(hops[members] - 1, counts)
    )
    return np.minimum.reduceat(np.where(closer, neighbours, rows.n), np.cumsum(counts) - counts)


def mpx_carving(
    graph: nx.Graph,
    eps: float,
    nodes: Optional[Iterable[Any]] = None,
    ledger: Optional[RoundLedger] = None,
    rng: Optional[random.Random] = None,
) -> BallCarving:
    """The MPX/EN16 strong-diameter ball carving with parameter ``eps``.

    Args:
        graph: Host graph.
        eps: Boundary parameter; the exponential shift rate ``beta`` is set to
            ``eps`` so the expected removed fraction is at most ``eps``.
        nodes: Optional node subset to operate on.
        ledger: Round ledger; the algorithm costs ``O(max_shift + cluster
            radius) = O(log n / eps)`` rounds (the shifted BFS of
            :func:`repro.congest.primitives.shifted_multisource_bfs` realises
            exactly this schedule on the message-passing simulator).
        rng: Random source (seed for reproducibility).

    Returns:
        A strong-diameter :class:`~repro.clustering.carving.BallCarving`.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie strictly between 0 and 1")
    rng = rng or random.Random(0)
    ledger = ledger if ledger is not None else RoundLedger()

    participating: Set[Any] = set(graph.nodes()) if nodes is None else set(nodes)
    working_graph = graph.subgraph(participating)
    n = len(participating)
    if n == 0:
        return BallCarving(graph=working_graph, clusters=[], dead=set(), eps=eps, ledger=ledger)

    beta = eps
    drawn = list(participating)
    draws = [rng.expovariate(beta) for _ in drawn]
    rows = induced_rows(csr_index(working_graph), drawn)
    shifts = np.empty(n)
    shifts[rows.position] = draws

    best_distance, centre, second_distance, _, hops = two_nearest_centers(rows, shifts)
    low_slack = second_distance - best_distance <= 1.0
    labels = rows.nodes
    dead = {labels[i] for i in np.flatnonzero(low_slack).tolist()}

    members = np.flatnonzero(~low_slack)
    members = members[np.argsort(centre[members], kind="stable")]
    centres, firsts = np.unique(centre[members], return_index=True)
    parent = np.empty(n, dtype=np.int32)
    children = members[hops[members] > 0]
    if children.size:
        parent[children] = _tree_parents(rows, children, centre, hops)
    clusters: List[Cluster] = []
    for root, group in zip(centres.tolist(), np.split(members, firsts[1:])):
        tree = {labels[root]: None}
        kids = group[group != root]
        tree.update(
            zip([labels[i] for i in kids.tolist()], [labels[i] for i in parent[kids].tolist()])
        )
        clusters.append(
            Cluster(
                nodes=frozenset([labels[i] for i in group.tolist()]),
                label=("mpx", rows.uids[root]),
                tree=SteinerTree(root=labels[root], parent=tree),
            )
        )

    max_shift = max(draws)
    max_radius = int(hops[members].max()) if members.size else 0
    ledger.charge("mpx_shifted_bfs", int(math.ceil(max_shift)) + max_radius + 2)

    return BallCarving(
        graph=working_graph,
        clusters=clusters,
        dead=dead,
        eps=eps,
        ledger=ledger,
        kind="strong",
    )


def mpx_decomposition(
    graph: nx.Graph,
    ledger: Optional[RoundLedger] = None,
    rng: Optional[random.Random] = None,
) -> NetworkDecomposition:
    """The randomized strong-diameter network decomposition of [MPX13, EN16]:
    ``O(log n)`` colors and ``O(log n)`` strong diameter with high
    probability, via repetitions of :func:`mpx_carving` with ``eps = 1/2``."""
    rng = rng or random.Random(0)

    def carving(host, eps, nodes=None, ledger=None):
        return mpx_carving(host, eps, nodes=nodes, ledger=ledger, rng=rng)

    return decomposition_via_carving(graph, carving, eps=0.5, ledger=ledger, kind="strong")
