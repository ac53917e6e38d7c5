"""Network decompositions via repeated ball carving (Theorems 2.3 and 3.4).

The standard reduction of Linial and Saks [LS93]: repeat a ball carving with
boundary parameter ``eps = 1/2`` on the still-unclustered nodes; the clusters
produced in the ``i``-th repetition receive color ``i``.  Every repetition
clusters at least half of the remaining nodes, so ``O(log n)`` colors suffice.
Clusters of the same color are non-adjacent because they come from a single
carving; the diameter bound of the decomposition is the diameter bound of the
carving.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Set

import networkx as nx

from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster
from repro.clustering.decomposition import NetworkDecomposition
from repro.congest.rounds import RoundLedger
from repro.core.improved_carving import theorem33_carving
from repro.core.strong_carving import theorem22_carving
from repro.graphs.csr import csr_restriction, node_rank
from repro.weak.carving import weak_diameter_carving

# A ball carving algorithm usable by the reduction: it accepts
# (graph, eps, nodes=..., ledger=...) and returns a BallCarving.
CarvingAlgorithm = Callable[..., BallCarving]


def _first_fit_colors(graph: nx.Graph, nodes: Set[Any], first: int) -> Dict[Any, int]:
    """First-fit colors ``>= first`` over the subgraph induced by ``nodes``.

    Nodes are colored in :func:`~repro.graphs.csr.node_rank` order, each
    taking the smallest color no already-colored neighbour holds; pairwise
    non-adjacent nodes all get ``first``.
    """
    order = sorted(nodes, key=node_rank(graph))
    colors: Dict[Any, int] = {}
    for node in order:
        used = {colors.get(neighbour) for neighbour in graph.neighbors(node)}
        color = first
        while color in used:
            color += 1
        colors[node] = color
    return colors


def decomposition_via_carving(
    graph: nx.Graph,
    carving_algorithm: CarvingAlgorithm,
    eps: float = 0.5,
    ledger: Optional[RoundLedger] = None,
    kind: str = "strong",
    max_colors: Optional[int] = None,
    nodes: Optional[Iterable[Any]] = None,
) -> NetworkDecomposition:
    """Build a network decomposition by iterating a ball carving algorithm.

    Args:
        graph: Host graph.
        carving_algorithm: The ball carving used per color class.
        eps: Boundary parameter per repetition (the classic reduction uses
            ``1/2``: at least half of the remaining nodes are clustered per
            color).
        ledger: Round ledger; the repetitions run sequentially so their costs
            add up.
        kind: ``"strong"`` or ``"weak"`` — the diameter guarantee of the
            carving (propagated to the decomposition).
        max_colors: Safety cap on the number of repetitions; defaults to
            ``4 * log2 n + 8``.
        nodes: Optional node subset to decompose (default: every node) —
            the partitioned out-of-core path decomposes one chunk at a time
            through this.

    Returns:
        A :class:`~repro.clustering.decomposition.NetworkDecomposition`
        covering every node of ``graph`` (or of ``nodes``).
    """
    ledger = ledger if ledger is not None else RoundLedger()
    if nodes is None:
        remaining: Set[Any] = set(graph.nodes())
    else:
        remaining = {node for node in nodes if node in graph}
    n = len(remaining)
    if n == 0:
        return NetworkDecomposition(graph=graph, clusters=[], ledger=ledger, kind=kind)

    if max_colors is None:
        max_colors = 4 * max(1, int(math.ceil(math.log2(max(2, n))))) + 8

    colored_clusters: List[Cluster] = []
    color = 0

    while remaining:
        if color >= max_colors:
            raise RuntimeError(
                "network decomposition used more than {} colors; the carving "
                "is not clustering enough nodes per repetition".format(max_colors)
            )
        carving = carving_algorithm(graph, eps, nodes=remaining, ledger=ledger)
        clustered = carving.clustered_nodes
        if not clustered:
            # Degenerate fallback: a carving that clusters nothing (a
            # randomised one can, e.g. ls93 drawing radius 0 everywhere)
            # would loop forever, so every remaining node becomes a
            # singleton, colored first-fit from ``color`` so that adjacent
            # singletons never share a color.
            singleton_colors = _first_fit_colors(graph, remaining, color)
            for node in sorted(remaining, key=str):
                colored_clusters.append(
                    Cluster(
                        nodes=frozenset({node}),
                        label=("singleton", node),
                        color=singleton_colors[node],
                    )
                )
            remaining = set()
            break
        for cluster in carving.clusters:
            colored_clusters.append(
                Cluster(
                    nodes=cluster.nodes,
                    label=(color, cluster.label),
                    color=color,
                    tree=cluster.tree,
                )
            )
        remaining -= clustered
        color += 1

    return NetworkDecomposition(graph=graph, clusters=colored_clusters, ledger=ledger, kind=kind)


def _bfs_chunk_order(graph: nx.Graph) -> List[Any]:
    """Every node of ``graph`` in a deterministic BFS order.

    Components are visited in ascending order of their smallest node
    *index* (the CSR / insertion order), and within a component the BFS
    expands neighbours in ascending index order.  Both graph backends
    (in-memory and memmap) index nodes identically, so the order — and
    therefore any chunking derived from it — is backend-independent.  A
    node-induced view orders its own nodes only.
    """
    csr, members = csr_restriction(graph)
    nodes = csr.nodes
    # Nodes outside the view stay out of every walk; the concatenated
    # layers of each start's BFS are its queue order.
    return [
        nodes[i]
        for component in csr.components(None if members is None else csr.indices_of(members))
        for i in component.tolist()
    ]


def partition_node_chunks(graph: nx.Graph, chunk_size: int) -> List[List[Any]]:
    """Split ``graph``'s nodes into BFS-ordered chunks of ``chunk_size``.

    The BFS order keeps chunks topologically coherent (a chunk is a union
    of contiguous BFS prefixes), which keeps the per-chunk working set of
    the partitioned decomposition small.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive, got {}".format(chunk_size))
    ordered = _bfs_chunk_order(graph)
    return [ordered[i : i + chunk_size] for i in range(0, len(ordered), chunk_size)]


def partitioned_decomposition(
    graph: nx.Graph,
    carving_algorithm: CarvingAlgorithm,
    partition_nodes: int,
    eps: float = 0.5,
    ledger: Optional[RoundLedger] = None,
    kind: str = "strong",
    max_colors: Optional[int] = None,
) -> NetworkDecomposition:
    """Decompose ``graph`` chunk-by-chunk under a node budget.

    The node set is split into deterministic BFS-ordered chunks of at most
    ``partition_nodes`` nodes; each chunk is decomposed independently via
    :func:`decomposition_via_carving` (sharing one ledger, so round costs
    add up as a sequential composition) and the chunk's colors are shifted
    past the colors already in use.  Same-color clusters stay non-adjacent
    because they always originate from a single carving repetition of a
    single chunk; the price of partitioning is a color count that grows
    with the number of chunks, which is the usual trade-off for bounding
    the peak working set on out-of-core graphs.
    """
    ledger = ledger if ledger is not None else RoundLedger()
    chunks = partition_node_chunks(graph, partition_nodes)
    if len(chunks) <= 1:
        return decomposition_via_carving(
            graph,
            carving_algorithm,
            eps=eps,
            ledger=ledger,
            kind=kind,
            max_colors=max_colors,
        )

    merged: List[Cluster] = []
    offset = 0
    for chunk_index, chunk in enumerate(chunks):
        part = decomposition_via_carving(
            graph,
            carving_algorithm,
            eps=eps,
            ledger=ledger,
            kind=kind,
            max_colors=max_colors,
            nodes=chunk,
        )
        peak = 0
        for cluster in part.clusters:
            color = cluster.color + offset
            peak = max(peak, cluster.color + 1)
            merged.append(
                Cluster(
                    nodes=cluster.nodes,
                    label=("part", chunk_index) + tuple(cluster.label),
                    color=color,
                    tree=cluster.tree,
                )
            )
        offset += peak

    return NetworkDecomposition(graph=graph, clusters=merged, ledger=ledger, kind=kind)


def theorem23_decomposition(
    graph: nx.Graph,
    ledger: Optional[RoundLedger] = None,
) -> NetworkDecomposition:
    """Theorem 2.3 — strong-diameter network decomposition with ``O(log n)``
    colors and ``O(log^3 n)`` diameter, by iterating the Theorem 2.2 carving
    with ``eps = 1/2``."""
    return decomposition_via_carving(graph, theorem22_carving, eps=0.5, ledger=ledger, kind="strong")


def theorem34_decomposition(
    graph: nx.Graph,
    ledger: Optional[RoundLedger] = None,
) -> NetworkDecomposition:
    """Theorem 3.4 — strong-diameter network decomposition with ``O(log n)``
    colors and ``O(log^2 n)`` diameter, by iterating the Theorem 3.3 carving
    with ``eps = 1/2``."""
    return decomposition_via_carving(graph, theorem33_carving, eps=0.5, ledger=ledger, kind="strong")


def weak_decomposition_rg20(
    graph: nx.Graph,
    ledger: Optional[RoundLedger] = None,
) -> NetworkDecomposition:
    """The [RG20]-style *weak*-diameter decomposition (Table 1's weak
    deterministic row), by iterating the weak carving with ``eps = 1/2``."""
    return decomposition_via_carving(
        graph, weak_diameter_carving, eps=0.5, ledger=ledger, kind="weak"
    )
