"""Validators for every invariant the paper states about clusterings.

These functions are used by the test suite (including the property-based
tests) and by the benchmark harness to certify that a produced carving or
decomposition really satisfies its claimed guarantees — the reproduction
measures parameters, it does not take them on faith.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import networkx as nx

from repro.clustering.carving import BallCarving
from repro.clustering.cluster import Cluster, edge_congestion
from repro.clustering.decomposition import NetworkDecomposition
from repro.graphs.csr import csr_index
from repro.graphs.properties import distances_from, subgraph_diameter


class ValidationError(AssertionError):
    """Raised when a clustering violates one of its claimed invariants."""


class FaultDetected(ValidationError):
    """A validator caught a fault-injected run producing a broken clustering.

    Raised by :func:`check_under_faults` when a run executed under a
    :class:`~repro.congest.faults.FaultPlan` fails any invariant check.
    The suite supervisor records it as an explicit ``status=failed`` cell
    (or retries the attempt) — injected faults either leave a *verified*
    result or this typed, attributable error; never silent corruption.

    Attributes:
        fault_stats: Counters/flags describing what was injected into the
            run that produced the broken clustering (empty when unknown).
    """

    def __init__(self, message: str, fault_stats: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.fault_stats: Dict[str, Any] = dict(fault_stats or {})


def _csr_row_neighbours(csr, owner: Dict[Any, Any]):
    """Yield ``(neighbour label, owner value of the source node)`` for every
    adjacency-row entry of every owned node.

    One flat pass over the CSR rows of the clustered nodes — O(vol(owner))
    total, no per-cluster mask allocations.  Nodes absent from the index
    (possible only for malformed inputs) are skipped, mirroring how an edge
    scan simply never reaches them.
    """
    indptr, indices, nodes, index_of = csr.indptr, csr.indices, csr.nodes, csr.index
    for node, value in owner.items():
        i = index_of.get(node)
        if i is None:
            continue
        for j in indices[indptr[i] : indptr[i + 1]]:
            yield nodes[j], value


# ---------------------------------------------------------------------- #
# Diameter notions
# ---------------------------------------------------------------------- #
def strong_diameter(graph: nx.Graph, nodes: Iterable[Any]) -> int:
    """Diameter of the subgraph induced by ``nodes``.

    Raises :class:`ValidationError` if the induced subgraph is disconnected
    (its strong diameter is unbounded).
    """
    try:
        return subgraph_diameter(graph, nodes)
    except ValueError as error:
        raise ValidationError(str(error)) from error


def weak_diameter(graph: nx.Graph, nodes: Iterable[Any]) -> int:
    """Maximum pairwise distance of ``nodes`` measured in the whole graph."""
    node_list = sorted(set(nodes), key=str)
    if len(node_list) <= 1:
        return 0
    diameter = 0
    for source in node_list:
        distances = distances_from(graph, source)
        for target in node_list:
            if target not in distances:
                raise ValidationError(
                    "nodes {!r} and {!r} are disconnected in the host graph".format(source, target)
                )
            diameter = max(diameter, distances[target])
    return diameter


def max_cluster_diameter(
    graph: nx.Graph,
    clusters: Sequence[Cluster],
    kind: str = "strong",
) -> int:
    """The largest (strong or weak) cluster diameter in the clustering."""
    measure = strong_diameter if kind == "strong" else weak_diameter
    return max((measure(graph, cluster.nodes) for cluster in clusters), default=0)


# ---------------------------------------------------------------------- #
# Structural invariants
# ---------------------------------------------------------------------- #
def clusters_are_disjoint(clusters: Sequence[Cluster]) -> bool:
    """True when no node belongs to two clusters."""
    seen: Set[Any] = set()
    for cluster in clusters:
        if seen & cluster.nodes:
            return False
        seen |= cluster.nodes
    return True


def clusters_nonadjacent(
    graph: nx.Graph, clusters: Sequence[Cluster], assume_fresh_index: bool = False
) -> bool:
    """True when no edge of the graph connects two distinct clusters.

    Walks the flat adjacency rows of the clustered nodes only —
    O(vol(clusters)) after the one-time staleness check, instead of a scan
    over every graph edge, which matters when validating many small
    carvings of a large graph.  Callers that already
    refreshed the CSR cache this call (the whole-object validators) pass
    ``assume_fresh_index=True`` to skip the redundant O(n + m) fingerprint.
    """
    owner: Dict[Any, int] = {}
    for index, cluster in enumerate(clusters):
        for node in cluster.nodes:
            owner[node] = index
    # A node-induced view reads its root's rows: a boundary neighbour
    # outside the view is never owned by a cluster.  Validators pay the
    # O(n + m) staleness check unless the caller just did — a validator
    # must never certify a clustering against a stale index.
    csr = csr_index(graph, refresh=not assume_fresh_index)
    for node, owner_index in _csr_row_neighbours(csr, owner):
        if owner.get(node, owner_index) != owner_index:
            return False
    return True


def same_color_clusters_nonadjacent(
    graph: nx.Graph, clusters: Sequence[Cluster], assume_fresh_index: bool = False
) -> bool:
    """True when no edge connects two distinct clusters of the same color.

    Like :func:`clusters_nonadjacent`, walks the clustered nodes' flat
    adjacency rows instead of scanning every edge; ``assume_fresh_index``
    skips the staleness check for callers that just refreshed.
    """
    owner: Dict[Any, Tuple[int, Any]] = {}
    for index, cluster in enumerate(clusters):
        for node in cluster.nodes:
            owner[node] = (index, cluster.color)
    csr = csr_index(graph, refresh=not assume_fresh_index)
    for neighbour, (source_index, source_color) in _csr_row_neighbours(csr, owner):
        entry = owner.get(neighbour)
        if entry is not None and entry[0] != source_index and entry[1] == source_color:
            return False
    return True


def check_steiner_trees(
    graph: nx.Graph,
    clusters: Sequence[Cluster],
    max_depth: Optional[int] = None,
    max_congestion: Optional[int] = None,
) -> None:
    """Validate the Steiner trees of a weak-diameter clustering.

    Checks that each tree uses only graph edges, is rooted and acyclic,
    contains all cluster terminals, respects the depth bound, and that no
    edge is used by more than ``max_congestion`` trees.
    """
    for cluster in clusters:
        if cluster.tree is None:
            raise ValidationError(
                "cluster {!r} of a weak-diameter clustering has no Steiner tree".format(
                    cluster.label
                )
            )
        try:
            cluster.tree.validate_against(graph)
        except ValueError as error:
            raise ValidationError("cluster {!r}: {}".format(cluster.label, error)) from error
        missing = cluster.nodes - cluster.tree.nodes
        if missing:
            raise ValidationError(
                "cluster {!r}: nodes {!r} missing from its Steiner tree".format(
                    cluster.label, sorted(missing, key=str)[:5]
                )
            )
        if max_depth is not None and cluster.tree.depth() > max_depth:
            raise ValidationError(
                "cluster {!r}: Steiner tree depth {} exceeds bound {}".format(
                    cluster.label, cluster.tree.depth(), max_depth
                )
            )
    if max_congestion is not None:
        usage = edge_congestion(clusters)
        worst = max(usage.values(), default=0)
        if worst > max_congestion:
            raise ValidationError(
                "edge congestion {} exceeds bound {}".format(worst, max_congestion)
            )


# ---------------------------------------------------------------------- #
# Whole-object validators
# ---------------------------------------------------------------------- #
def check_ball_carving(
    carving: BallCarving,
    max_diameter: Optional[int] = None,
    max_dead_fraction: Optional[float] = None,
    max_tree_depth: Optional[int] = None,
    max_congestion: Optional[int] = None,
) -> None:
    """Validate a ball carving against the paper's requirements.

    * clusters are disjoint, cover exactly the non-dead nodes, and are
      pairwise non-adjacent;
    * the dead fraction is at most ``max_dead_fraction`` (default: the
      carving's own ``eps``);
    * each cluster's strong (or weak) diameter is at most ``max_diameter``
      when a bound is given;
    * Steiner trees are present and valid for weak-diameter carvings.
    """
    from repro.graphs.csr import refresh_csr_cache

    graph = carving.graph
    # A validator must never certify against a stale flat index; one O(n+m)
    # staleness check up front covers every BFS this function triggers.
    refresh_csr_cache(graph)
    all_nodes = set(graph.nodes())

    if not clusters_are_disjoint(carving.clusters):
        raise ValidationError("clusters are not disjoint")

    clustered = carving.clustered_nodes
    if clustered & carving.dead:
        raise ValidationError("some nodes are both clustered and dead")
    if clustered | carving.dead != all_nodes:
        missing = all_nodes - clustered - carving.dead
        raise ValidationError(
            "{} nodes are neither clustered nor dead (e.g. {!r})".format(
                len(missing), sorted(missing, key=str)[:5]
            )
        )

    if not clusters_nonadjacent(graph, carving.clusters, assume_fresh_index=True):
        raise ValidationError("two distinct clusters of the carving are adjacent")

    allowed_dead = carving.eps if max_dead_fraction is None else max_dead_fraction
    # Small graphs cannot realise fractional bounds exactly; allow the
    # integer slack of one node that every probabilistic/deterministic bound
    # in the paper implicitly has on constant-size instances.
    n = graph.number_of_nodes()
    if n > 0 and len(carving.dead) > allowed_dead * n + 1e-9:
        if len(carving.dead) > int(allowed_dead * n) + 1:
            raise ValidationError(
                "dead fraction {:.4f} exceeds allowed {:.4f}".format(
                    carving.dead_fraction, allowed_dead
                )
            )

    if max_diameter is not None:
        measured = max_cluster_diameter(graph, carving.clusters, kind=carving.kind)
        if measured > max_diameter:
            raise ValidationError(
                "max {} diameter {} exceeds bound {}".format(carving.kind, measured, max_diameter)
            )
    elif carving.kind == "strong":
        # Even without an explicit bound, a strong carving's clusters must at
        # least induce connected subgraphs.  One restricted BFS per cluster
        # (over the CSR index) instead of the all-pairs diameter.
        if not carving.check_clusters_connected(assume_fresh_index=True):
            raise ValidationError("a strong-diameter cluster induces a disconnected subgraph")

    if carving.kind == "weak":
        check_steiner_trees(
            graph,
            carving.clusters,
            max_depth=max_tree_depth,
            max_congestion=max_congestion,
        )


def check_network_decomposition(
    decomposition: NetworkDecomposition,
    max_colors: Optional[int] = None,
    max_diameter: Optional[int] = None,
) -> None:
    """Validate a network decomposition against the paper's requirements.

    * the clusters are disjoint and cover every node of the graph;
    * same-color clusters are non-adjacent;
    * every cluster's (strong or weak) diameter is within ``max_diameter``;
    * at most ``max_colors`` colors are used.
    """
    from repro.graphs.csr import refresh_csr_cache

    graph = decomposition.graph
    refresh_csr_cache(graph)
    all_nodes = set(graph.nodes())

    if not clusters_are_disjoint(decomposition.clusters):
        raise ValidationError("clusters are not disjoint")
    covered = decomposition.covered_nodes()
    if covered != all_nodes:
        missing = all_nodes - covered
        raise ValidationError(
            "{} nodes are not covered by any cluster (e.g. {!r})".format(
                len(missing), sorted(missing, key=str)[:5]
            )
        )
    if not same_color_clusters_nonadjacent(graph, decomposition.clusters, assume_fresh_index=True):
        raise ValidationError("two adjacent clusters share a color")

    if max_colors is not None and decomposition.num_colors > max_colors:
        raise ValidationError(
            "uses {} colors, more than the allowed {}".format(
                decomposition.num_colors, max_colors
            )
        )

    if max_diameter is not None:
        measured = max_cluster_diameter(graph, decomposition.clusters, kind=decomposition.kind)
        if measured > max_diameter:
            raise ValidationError(
                "max {} diameter {} exceeds bound {}".format(
                    decomposition.kind, measured, max_diameter
                )
            )
    elif decomposition.kind == "strong":
        # Without a bound only induced connectivity is checked: one
        # restricted BFS per cluster (Cluster.radius raises exactly when
        # the induced subgraph is disconnected), not the all-pairs diameter.
        for cluster in decomposition.clusters:
            try:
                cluster.radius(graph)
            except ValueError as error:
                raise ValidationError(
                    "induced subgraph is disconnected; strong diameter undefined"
                ) from error


# ---------------------------------------------------------------------- #
# Fault-injected runs: verify-or-raise-typed, never silent
# ---------------------------------------------------------------------- #
def check_under_faults(
    check: Callable[..., None],
    clustering: Union[BallCarving, NetworkDecomposition],
    fault_stats: Optional[Dict[str, Any]] = None,
    **kwargs: Any,
) -> None:
    """``check(clustering, **kwargs)``, re-raised as :class:`FaultDetected`.

    ``check`` is :func:`check_ball_carving` or
    :func:`check_network_decomposition`.  The contract of every
    fault-injected run: either the full validator passes (the clustering
    survived the injected faults intact) or the failure surfaces as a typed
    :class:`FaultDetected` carrying the run's ``fault_stats`` — which the
    pipeline records as an explicit failure cell rather than a
    silently-wrong result row.
    """
    try:
        check(clustering, **kwargs)
    except FaultDetected:
        raise
    except ValidationError as error:
        noun = "carving" if isinstance(clustering, BallCarving) else "decomposition"
        raise FaultDetected(
            "{} failed validation under fault injection: {}".format(noun, error),
            fault_stats,
        ) from error
