"""The result type of a ``(C, D)`` network decomposition.

A network decomposition partitions *all* nodes into clusters colored with
``C`` colors so that same-color clusters are non-adjacent; in the
strong-diameter variant each cluster's induced subgraph has diameter at most
``D``, in the weak-diameter variant the distances are measured in the
original graph.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.clustering.cluster import Cluster
from repro.clustering.geometry import ClusterGeometry
from repro.congest.rounds import RoundLedger


@dataclasses.dataclass
class NetworkDecomposition:
    """Colored clusters covering every node of the host graph.

    Attributes:
        graph: The host graph.
        clusters: The clusters; every cluster carries a ``color``.
        ledger: Round-cost ledger of the producing algorithm.
        kind: ``"strong"`` or ``"weak"`` diameter guarantee.
    """

    graph: nx.Graph
    clusters: List[Cluster]
    ledger: RoundLedger = dataclasses.field(default_factory=RoundLedger)
    kind: str = "strong"

    def __post_init__(self) -> None:
        if self.kind not in ("strong", "weak"):
            raise ValueError("kind must be 'strong' or 'weak'")
        for cluster in self.clusters:
            if cluster.color is None:
                raise ValueError("every cluster of a network decomposition needs a color")

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def num_colors(self) -> int:
        """The number of distinct colors used (the parameter ``C``)."""
        return len({cluster.color for cluster in self.clusters})

    @property
    def colors(self) -> List[int]:
        """The sorted list of colors in use."""
        return sorted({cluster.color for cluster in self.clusters})

    @property
    def rounds(self) -> int:
        """Total CONGEST rounds charged by the producing algorithm."""
        return self.ledger.total_rounds

    @functools.cached_property
    def geometry(self) -> ClusterGeometry:
        """Every cluster's exact diameter, measured once (see
        :class:`~repro.clustering.geometry.ClusterGeometry`)."""
        return ClusterGeometry.measure(self.graph, self.clusters, self.kind)

    def clusters_of_color(self, color: int) -> List[Cluster]:
        """All clusters carrying the given color."""
        return [cluster for cluster in self.clusters if cluster.color == color]

    def color_of(self) -> Dict[Any, int]:
        """Mapping node -> color of its cluster."""
        assignment: Dict[Any, int] = {}
        for cluster in self.clusters:
            for node in cluster.nodes:
                assignment[node] = cluster.color
        return assignment

    def cluster_of(self) -> Dict[Any, Any]:
        """Mapping node -> cluster label."""
        assignment: Dict[Any, Any] = {}
        for cluster in self.clusters:
            for node in cluster.nodes:
                assignment[node] = cluster.label
        return assignment

    def covered_nodes(self) -> Set[Any]:
        """Union of all cluster node sets (must equal the graph's nodes)."""
        covered: Set[Any] = set()
        for cluster in self.clusters:
            covered |= cluster.nodes
        return covered

    def summary(self) -> Dict[str, Any]:
        """A compact dictionary of the quantities the benchmarks report."""
        return {
            "kind": self.kind,
            "n": self.graph.number_of_nodes(),
            "clusters": len(self.clusters),
            "colors": self.num_colors,
            "max_cluster_size": max((len(c) for c in self.clusters), default=0),
            "rounds": self.rounds,
        }
