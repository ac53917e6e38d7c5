"""The ABCP96 weak-to-strong transformation (LOCAL model, unbounded messages).

Awerbuch, Berger, Cowen and Peleg showed how to turn a weak-diameter network
decomposition into a strong-diameter ball carving: run the weak decomposition
on the power graph ``G^{2d}`` (``d = log n``), then process the colors one by
one; per color, every cluster *gathers the entire topology* of itself and its
``d``-hop neighbourhood at its centre and carves strong-diameter balls there
by local computation.  Because clusters of one color are at distance at least
``2d + 1``, the gathered regions are disjoint.

The catch — and the motivation for the paper we reproduce — is the gathering
step: shipping a whole induced subgraph to the centre requires messages of
``Theta(E_local * log n)`` bits, far beyond the CONGEST bandwidth.  This
module implements the transformation and *measures* the message sizes it
would need, so the message-size benchmark can contrast it with the
small-message transformation of Theorem 2.1.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.baselines.sequential import _grow_ball
from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster
from repro.clustering.decomposition import NetworkDecomposition
from repro.congest.messages import default_bandwidth
from repro.congest.rounds import RoundLedger
from repro.graphs.csr import node_rank
from repro.graphs.power import power_graph
from repro.graphs.properties import neighborhood_ball


@dataclasses.dataclass
class ABCPReport:
    """Message-size accounting of one ABCP96 run.

    Attributes:
        max_message_bits: The largest single message the topology-gathering
            step needs (the induced subgraph of a gathered region, encoded at
            ``2 * ceil(log2 n)`` bits per edge).
        congest_bandwidth_bits: The CONGEST bandwidth ``B = O(log n)`` for the
            same ``n``, for direct comparison.
        gathered_regions: Number of gather operations performed.
        power_graph_edges: Edge count of ``G^{2d}`` (the power graph the weak
            decomposition runs on — itself another source of large messages).
    """

    max_message_bits: int = 0
    congest_bandwidth_bits: int = 0
    gathered_regions: int = 0
    power_graph_edges: int = 0

    @property
    def blowup_factor(self) -> float:
        """How many times the CONGEST bandwidth the largest message exceeds."""
        if self.congest_bandwidth_bits == 0:
            return float("inf")
        return self.max_message_bits / self.congest_bandwidth_bits


def abcp_strong_carving(
    graph: nx.Graph,
    weak_decomposition: Optional[Callable[[nx.Graph], NetworkDecomposition]] = None,
    ledger: Optional[RoundLedger] = None,
) -> Tuple[BallCarving, ABCPReport]:
    """Run the ABCP96 transformation and report its message-size footprint.

    Args:
        graph: Host graph.
        weak_decomposition: The weak-diameter decomposition to run on the
            power graph ``G^{2d}``; defaults to the centralized sequential
            construction (any decomposition works — the message-size numbers
            are dominated by the gathering step, not by this choice).
        ledger: Round ledger (LOCAL-model rounds).

    Returns:
        ``(carving, report)`` where ``carving`` is a strong-diameter ball
        carving with ``eps = 1/2`` and ``report`` quantifies the unbounded
        messages the transformation needs.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    n = graph.number_of_nodes()
    if n == 0:
        return (
            BallCarving(graph=graph, clusters=[], dead=set(), eps=0.5, ledger=ledger),
            ABCPReport(congest_bandwidth_bits=default_bandwidth(1)),
        )

    if weak_decomposition is None:
        from repro.baselines.sequential import greedy_sequential_decomposition

        weak_decomposition = greedy_sequential_decomposition

    d = max(1, int(math.ceil(math.log2(max(2, n)))))
    bits_per_edge = 2 * max(1, int(math.ceil(math.log2(max(2, n)))))
    report = ABCPReport(congest_bandwidth_bits=default_bandwidth(n))

    powered = power_graph(graph, 2 * d)
    report.power_graph_edges = powered.number_of_edges()
    decomposition = weak_decomposition(powered)
    # Each power-graph round needs 2d real rounds (with large messages).
    ledger.charge("abcp_weak_decomposition_on_power_graph", decomposition.rounds * 2 * d)

    rank = node_rank(graph)
    remaining: Set[Any] = set(graph.nodes())
    clusters: List[Cluster] = []
    dead: Set[Any] = set()
    index = 0

    for color in decomposition.colors:
        for cluster in decomposition.clusters_of_color(color):
            members = set(cluster.nodes) & remaining
            if not members:
                continue
            # Gather the topology of the cluster plus its (d+1)-hop
            # neighbourhood (restricted to still-remaining nodes) at the
            # cluster centre; the extra hop guarantees that every carved
            # ball's boundary layer lies inside the gathered region.
            region = neighborhood_ball(graph, members, d + 1, allowed=remaining)
            region_edges = sum(
                1 for u, v in graph.edges() if u in region and v in region
            )
            gather_bits = max(1, region_edges) * bits_per_edge
            report.max_message_bits = max(report.max_message_bits, gather_bits)
            report.gathered_regions += 1
            ledger.charge("abcp_gather", 2 * d)

            # Centralized sequential ball carving inside the gathered region,
            # but only carving balls around nodes of the weak cluster itself.
            pool = set(region)
            seeds = set(members)
            while seeds & pool:
                center = min(seeds & pool, key=rank)
                ball, boundary, _ = _grow_ball(graph, center, pool, stop_ratio=0.5)
                clusters.append(Cluster(nodes=frozenset(ball), label=("abcp", index)))
                index += 1
                dead |= boundary
                pool -= ball
                pool -= boundary
                remaining -= ball
                remaining -= boundary
            ledger.charge("abcp_report_back", 2 * d)

    # Every node belongs to some weak cluster, so by the time all colors have
    # been processed every node has been swallowed by a carved ball or a
    # boundary layer: `remaining` must be empty here.  The assertion documents
    # (and enforces) this invariant of the transformation.
    if remaining - dead:
        raise RuntimeError(
            "ABCP96 transformation left {} nodes unprocessed; "
            "the weak decomposition did not cover the graph".format(len(remaining - dead))
        )

    carving = BallCarving(
        graph=graph,
        clusters=clusters,
        dead=dead,
        eps=0.5,
        ledger=ledger,
        kind="strong",
    )
    return carving, report
