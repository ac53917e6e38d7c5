"""The result type of a ball carving (node version).

A ball carving with boundary parameter ``eps`` removes at most an ``eps``
fraction of the nodes and clusters the remaining ones into pairwise
non-adjacent clusters.  :class:`BallCarving` stores the clusters, the removed
("dead") nodes, the boundary parameter, and a :class:`~repro.congest.rounds.RoundLedger`
recording the CONGEST rounds the producing algorithm charged.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.clustering.cluster import Cluster, edge_congestion
from repro.clustering.geometry import ClusterGeometry
from repro.congest.rounds import RoundLedger


@dataclasses.dataclass
class BallCarving:
    """Clusters plus dead nodes produced by a ball carving algorithm.

    Attributes:
        graph: The host graph the carving was computed on.
        clusters: The produced clusters (pairwise non-adjacent by contract).
        dead: The removed nodes.
        eps: The boundary parameter the algorithm was invoked with.
        ledger: Round-cost ledger of the producing algorithm.
        kind: ``"strong"`` or ``"weak"`` — which diameter guarantee the
            producer claims; validators check the corresponding notion.
    """

    graph: nx.Graph
    clusters: List[Cluster]
    dead: Set[Any]
    eps: float
    ledger: RoundLedger = dataclasses.field(default_factory=RoundLedger)
    kind: str = "strong"

    def __post_init__(self) -> None:
        if self.kind not in ("strong", "weak"):
            raise ValueError("kind must be 'strong' or 'weak'")
        self.dead = set(self.dead)

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def clustered_nodes(self) -> Set[Any]:
        """All nodes belonging to some cluster."""
        result: Set[Any] = set()
        for cluster in self.clusters:
            result |= cluster.nodes
        return result

    @property
    def dead_fraction(self) -> float:
        """Fraction of the graph's nodes that were removed."""
        n = self.graph.number_of_nodes()
        return len(self.dead) / n if n else 0.0

    @property
    def rounds(self) -> int:
        """Total CONGEST rounds charged by the producing algorithm."""
        return self.ledger.total_rounds

    @functools.cached_property
    def geometry(self) -> ClusterGeometry:
        """Every cluster's exact diameter, measured once (see
        :class:`~repro.clustering.geometry.ClusterGeometry`)."""
        return ClusterGeometry.measure(self.graph, self.clusters, self.kind)

    def cluster_of(self) -> Dict[Any, Any]:
        """Mapping node -> cluster label (clustered nodes only)."""
        assignment: Dict[Any, Any] = {}
        for cluster in self.clusters:
            for node in cluster.nodes:
                assignment[node] = cluster.label
        return assignment

    def max_cluster_size(self) -> int:
        """Size of the largest cluster (0 when there are none)."""
        return max((len(cluster) for cluster in self.clusters), default=0)

    def congestion(self) -> int:
        """Maximum number of Steiner trees sharing one edge (``L``)."""
        usage = edge_congestion(self.clusters)
        return max(usage.values(), default=0)

    # ------------------------------------------------------------------ #
    # Index-backed helpers (one restricted BFS per cluster over the CSR
    # flat arrays)
    # ------------------------------------------------------------------ #
    def cluster_radii(self) -> Dict[Any, int]:
        """Mapping cluster label -> centre eccentricity inside the cluster.

        Twice the radius upper-bounds each cluster's strong diameter, which
        is what :meth:`summary` reports without paying the all-pairs BFS of
        the exact validators.  Raises ``ValueError`` on a cluster whose
        induced subgraph is disconnected (only legal for weak carvings).
        """
        from repro.graphs.csr import refresh_csr_cache

        # One staleness check up front keeps the per-cluster BFS calls off a
        # stale flat index if the host graph was mutated in place.
        refresh_csr_cache(self.graph)
        return {cluster.label: cluster.radius(self.graph) for cluster in self.clusters}

    def max_cluster_radius(self) -> int:
        """The largest cluster radius (0 when there are no clusters)."""
        return max(self.cluster_radii().values(), default=0)

    def check_clusters_connected(self, assume_fresh_index: bool = False) -> bool:
        """Cheap validation: every strong-diameter cluster is connected.

        One restricted BFS per cluster, via :meth:`Cluster.radius` (which
        raises exactly when the induced subgraph is disconnected) — a single
        source of truth for the connectivity test.  Weak-diameter carvings
        vacuously pass; their connectivity lives in the Steiner trees.
        ``assume_fresh_index`` skips the staleness check for callers (the
        whole-object validators) that just refreshed the CSR cache.
        """
        if self.kind != "strong":
            return True
        if not assume_fresh_index:
            from repro.graphs.csr import refresh_csr_cache

            refresh_csr_cache(self.graph)
        for cluster in self.clusters:
            try:
                cluster.radius(self.graph)
            except ValueError:
                return False
        return True

    def summary(self) -> Dict[str, Any]:
        """A compact dictionary of the quantities the benchmarks report.

        ``max_cluster_radius`` (strong carvings only; ``None`` for weak ones,
        whose clusters may induce disconnected subgraphs) is the cheap
        one-BFS-per-cluster diameter proxy: twice the radius upper-bounds the
        strong diameter.
        """
        return {
            "kind": self.kind,
            "eps": self.eps,
            "n": self.graph.number_of_nodes(),
            "clusters": len(self.clusters),
            "clustered_nodes": len(self.clustered_nodes),
            "dead_nodes": len(self.dead),
            "dead_fraction": self.dead_fraction,
            "max_cluster_size": self.max_cluster_size(),
            "max_cluster_radius": self.max_cluster_radius() if self.kind == "strong" else None,
            "congestion": self.congestion(),
            "rounds": self.rounds,
        }
