"""Structural graph properties used by the algorithms and the validators.

The quantities here mirror the ones the paper reasons about:

* **strong diameter** of a cluster = diameter of the subgraph induced by the
  cluster (``subgraph_diameter``);
* **weak diameter** of a cluster = maximum distance *in the original graph*
  between two cluster nodes (``weak_diameter`` lives in
  :mod:`repro.clustering.validation` because it needs the cluster type);
* **conductance** of a cut, used by the Section-3 barrier experiment;
* **balls** ``B_r(v)`` / ``B_r(S)`` — all nodes within distance ``r`` of a
  node or a set, measured inside a designated subgraph.

The BFS-shaped primitives (:func:`bfs_layers_within`,
:func:`induced_components`, :func:`neighborhood_ball`, :func:`distances_from`,
:func:`iter_neighbors`) run over the frozen flat-array index of
:mod:`repro.graphs.csr`, which every undirected input resolves to (see
:func:`repro.graphs.csr.csr_index`): a graph with self-loops or parallel
edges runs as its simple graph.  The tests check them against networkx's own
algorithms on ``G.subgraph(S)``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set

import networkx as nx

from repro.graphs.csr import csr_index, csr_restriction


def neighbors_resolver(graph: nx.Graph):
    """A callable ``node -> neighbours`` with the index lookup paid once.

    Per-node loops should call this once outside the loop and reuse the
    returned callable: the gate (view detection, cache probe) costs more
    than a low-degree row read, so paying it per node erases the flat-array
    win.  The resolver reads the cached flat adjacency rows; a view's
    resolver drops the neighbours outside the view.
    """
    row = csr_index(graph).neighbors
    if not hasattr(graph, "_graph"):
        return row
    return lambda node: [neighbour for neighbour in row(node) if neighbour in graph]


def iter_neighbors(graph: nx.Graph, node) -> Iterable:
    """Neighbours of ``node`` in ``graph`` (one-off lookups).

    Convenience wrapper over :func:`neighbors_resolver` that re-resolves the
    gate per call — fine for occasional queries; hot loops should hoist the
    resolver instead.
    """
    return neighbors_resolver(graph)(node)


def induced_components(graph: nx.Graph, nodes: Iterable) -> List[Set]:
    """Connected components of the subgraph induced by ``nodes``.

    Returns a list of node sets.  The induced subgraph is *not* materialised;
    we run BFS restricted to the node set, which is considerably faster for
    the tight loops in the carving algorithms.
    """
    csr, effective = csr_restriction(graph, nodes)
    return csr.connected_components(allowed=effective)


def connected_subgraphs(graph: nx.Graph) -> List[nx.Graph]:
    """Materialised connected components of ``graph`` as subgraph views."""
    return [graph.subgraph(component).copy() for component in nx.connected_components(graph)]


def bfs_layers_within(
    graph: nx.Graph,
    sources: Iterable,
    allowed: Optional[Set] = None,
    max_radius: Optional[int] = None,
) -> List[Set]:
    """BFS layers from ``sources`` restricted to the ``allowed`` node set.

    Layer ``0`` is the set of sources (intersected with ``allowed``); layer
    ``r`` contains the nodes at distance exactly ``r`` from the source set in
    the subgraph induced by ``allowed``.  Stops after ``max_radius`` layers if
    given, otherwise when the frontier empties.
    """
    csr, effective = csr_restriction(graph, allowed)
    return csr.bfs_layers(sources, allowed=effective, max_radius=max_radius)


def neighborhood_ball(
    graph: nx.Graph,
    sources: Iterable,
    radius: int,
    allowed: Optional[Set] = None,
) -> Set:
    """``B_radius(sources)``: nodes within the given distance of the sources.

    Distances are measured in the subgraph induced by ``allowed`` (the whole
    graph when ``allowed`` is ``None``).  The sources themselves are included
    (distance zero).
    """
    csr, effective = csr_restriction(graph, allowed)
    return csr.ball(sources, radius, allowed=effective)


def distances_from(
    graph: nx.Graph,
    source,
    allowed: Optional[Set] = None,
) -> Dict[object, int]:
    """Single-source BFS distances restricted to ``allowed`` nodes."""
    csr, effective = csr_restriction(graph, allowed)
    result = csr.distances(source, allowed=effective)
    if source not in result:
        raise ValueError("source must belong to the allowed node set")
    return result


def radius_from(graph: nx.Graph, source, allowed: Optional[Set] = None) -> int:
    """Eccentricity of ``source`` within the induced subgraph of ``allowed``."""
    distances = distances_from(graph, source, allowed=allowed)
    return max(distances.values()) if distances else 0


def subgraph_diameter(graph: nx.Graph, nodes: Iterable) -> int:
    """Strong diameter: the diameter of the subgraph induced by ``nodes``.

    Returns ``0`` for empty or singleton node sets and raises ``ValueError``
    if the induced subgraph is disconnected (a disconnected cluster has
    unbounded strong diameter — the validators treat that as a failure and
    want a loud error, not a silent large number).
    """
    node_set = set(nodes)
    if len(node_set) <= 1:
        return 0
    csr, effective = csr_restriction(graph, node_set)
    return csr.induced_diameter(effective, expected=len(node_set))


def exact_diameter(graph: nx.Graph) -> int:
    """Exact diameter of a connected graph via one BFS per node."""
    if graph.number_of_nodes() == 0:
        return 0
    return subgraph_diameter(graph, graph.nodes())


def approximate_diameter(graph: nx.Graph, probes: int = 4) -> int:
    """A lower bound on the diameter via repeated double-sweep BFS probes.

    Exact diameters require one BFS per node; for the larger benchmark graphs
    the double-sweep heuristic (BFS from an arbitrary node, then BFS from the
    farthest node found) is a standard, cheap, and usually tight lower bound.
    """
    nodes = list(graph.nodes())
    if not nodes:
        return 0
    best = 0
    source = nodes[0]
    for _ in range(max(1, probes)):
        distances = distances_from(graph, source)
        farthest = max(distances, key=distances.get)
        best = max(best, distances[farthest])
        source = farthest
    return best


def conductance_of_cut(graph: nx.Graph, cut_side: Iterable) -> float:
    """Conductance of the cut ``(S, V \\ S)``: ``|E(S, V\\S)| / min(vol S, vol V\\S)``.

    Returns ``float('inf')`` when one side is empty (the cut is degenerate).
    Volumes are simple-graph degrees in ``graph`` (inside the view for a
    node-induced view); the crossing count is ``vol(S) - 2 |E(S)|`` from the
    flat induced-degree primitive — this is the inner loop of the sweep-cut
    search in :func:`graph_conductance_lower_bound`.
    """
    side = set(cut_side)
    if not side:
        return float("inf")
    csr, members = csr_restriction(graph)
    if members is None:
        if len(side) >= csr.n:
            return float("inf")  # the other side is empty
        volume_side = sum(csr.degree(node) for node in side)
        volume_other = 2 * csr.m - volume_side
    else:
        degrees = csr.induced_degrees(members)
        if len(side) >= len(degrees):
            return float("inf")
        volume_side = sum(degrees[node] for node in side)
        volume_other = sum(degrees.values()) - volume_side
    crossing = volume_side - sum(csr.induced_degrees(side).values())
    denominator = min(volume_side, volume_other)
    if denominator == 0:
        return float("inf")
    return crossing / denominator


def graph_conductance_lower_bound(graph: nx.Graph, samples: int = 64, seed: int = 0) -> float:
    """A cheap upper estimate of the graph conductance via sampled sweep cuts.

    Exact conductance is NP-hard; the benchmark only needs to confirm that the
    barrier graph's conductance is *small* (``Theta(eps / log n)``), so an
    upper bound obtained from BFS sweep cuts is sufficient: for a few sampled
    start nodes we sweep the BFS ordering and record the best conductance seen.
    """
    import random as _random

    nodes = list(graph.nodes())
    if len(nodes) < 4:
        return float("inf")
    rng = _random.Random(seed)
    best = float("inf")
    total_volume = 2 * graph.number_of_edges()
    for _ in range(max(1, samples // 16)):
        start = rng.choice(nodes)
        order: List = []
        for layer in bfs_layers_within(graph, [start]):
            order.extend(sorted(layer))
        # Incremental sweep: adding `node` to the prefix converts its edges
        # into the prefix from crossing to internal and its remaining edges
        # to new crossing edges, so volume and crossing update in O(deg)
        # and the whole sweep costs O(m) instead of one O(n + vol) cut
        # evaluation per prefix.
        neighbours_of = neighbors_resolver(graph)
        prefix: Set = set()
        volume = 0
        crossing = 0
        for node in order[: len(order) - 1]:
            prefix.add(node)
            degree = graph.degree(node)
            internal = sum(1 for nb in neighbours_of(node) if nb in prefix)
            volume += degree
            crossing += degree - 2 * internal
            if len(prefix) < len(nodes) // 8:
                continue
            if len(prefix) > 7 * len(nodes) // 8:
                break
            denominator = min(volume, total_volume - volume)
            if denominator > 0:
                best = min(best, crossing / denominator)
    return best


def is_partition(universe: Iterable, parts: Sequence[Iterable]) -> bool:
    """True when ``parts`` are disjoint and cover exactly ``universe``."""
    universe_set = set(universe)
    combined: Set = set()
    total = 0
    for part in parts:
        part_set = set(part)
        total += len(part_set)
        combined |= part_set
    return combined == universe_set and total == len(universe_set)
